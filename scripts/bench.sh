#!/bin/sh
# Run the repo benchmark suite and record the results as JSON.
#
# Usage: scripts/bench.sh [outfile] [bench-regex]
#
# Produces a JSON file (default BENCH_<date>.json) with one record per
# benchmark: name, iterations, ns/op, the allocation columns when the
# benchmark reports them, and any custom metrics emitted via b.ReportMetric
# (the message-engine benchmarks report rounds/s; the Moser–Tardos
# benchmarks report resamplings/s). Raw `go test -bench` output is kept
# alongside the parsed records so nothing is lost to parsing.
#
# The report also embeds `locad exp -summary` output under the
# "experiments" key: real per-experiment engine metrics (rounds, messages,
# bytes, round-latency percentiles, allocator deltas) from the internal/obs
# instrumentation layer, collected from an observed sequential run.
#
# A serving-layer section lands under the "serve" key: `locad serve` is
# started on an ephemeral port with a persistent artifact store and driven
# by `locad loadgen` through a cold (cache-bypass) phase, a warm phase, and
# a binary /v1/batch phase on the E2 cycle workload, recording req/s and
# latency percentiles per phase, the warm/cold throughput ratio, per-item
# batch throughput, and a /v1/stats scrape (cache hit rates, per-endpoint
# latencies, store counters). The server is then SIGTERMed and restarted on
# the same store; "serve".restart records the first post-restart decode and
# a cache-bypassing recompute — both the whole-request latencies and the
# artifact-level split (store load_nanos vs engine_compute_nanos), whose
# ratio is the cold-start-recovery speedup of the persistent store.
#
# A "cluster" section records the digest-routed shard fleet: `locad
# loadgen -cluster` spawns a router + N shard processes per point
# (N = 1,2,4,8), measures routed cold/warm throughput, and embeds the
# router's stats scrape (forwards, replica hits, failovers, per-shard
# ownership counts). The section records the host CPU count so the
# regression gate can tell a true scaling regression from a host that
# simply lacks the cores (DESIGN.md decision 9).
#
# A "msgred" section records `locad msgred -graph grid -n 4096 -json`: the
# frugal engine's skeleton-simulation message/byte reduction and round
# overhead against the stock scheduler on the saturating grid flood, which
# the regression gate holds to a ≥3x message floor at ≤2x rounds.
#
# A "decomp" section records `locad decomp -sched -json`: scheduler
# rounds/s with contiguous index shards vs the low-diameter decomposition's
# low-cut ball shards on 4096-node grid/torus/gnp graphs at 2/4/8 workers.
# The gate always requires bit-identical outputs between the shardings and
# structurally valid decompositions; the ≥1.0x locality speedup floor binds
# only when the recording host has >= 4 CPUs (DESIGN.md decision 9).
#
# A "detlll" section records `locad detlll -json`: the two LLL resolution
# methods (seeded Moser–Tardos vs the deterministic conditional-expectations
# solver) compared on solver work and seed-independence, plus the serving
# layer's warm cache hit rate under rotating request seeds for the det-mode
# vs the seeded schema entries. The gate requires zero resamplings and
# exactly one distinct advice output on the det path, and a det warm hit
# rate strictly above the seeded one.
#
# `make bench` runs the full sweep; `make bench-msg` restricts the regex to
# the message-engine and LLL benchmarks for quick perf iteration.
set -eu

out=${1:-BENCH_$(date +%F).json}
pattern=${2:-.}

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchmem . | tee "$raw"

# Wall time of the race-enabled engine-equivalence + fault property tests:
# the race detector multiplies the cost of the parallel engines' memory
# traffic, so this number regresses when a change adds synchronization or
# sharing to the hot paths even if the benchmarks above stay flat.
race_start=$(date +%s)
go test -race -count=1 -run 'Equivalence|Matches|WorkerCount|Crash|Fault|Normalize|Decomp|Partition' \
    ./internal/local ./internal/fault ./internal/decomp >/dev/null
race_seconds=$(( $(date +%s) - race_start ))
echo "race-enabled equivalence tests: ${race_seconds}s"

# Observed experiment run: per-experiment engine metrics via internal/obs.
exp_json=$(mktemp)
trap 'rm -f "$raw" "$exp_json"' EXIT
go run ./cmd/locad exp -summary "$exp_json" >/dev/null
echo "observed experiment metrics collected"

# Serving-layer benchmark: cold vs warm /v1/decode throughput plus binary
# /v1/batch throughput on the E2 cycle workload (MIS on a 256-cycle,
# table-compiled decoder), via a real server on an ephemeral port backed by
# a persistent artifact store.
workdir=$(mktemp -d)
serve_json="$workdir/serve.json"
restart_json="$workdir/restart.json"
serve_log="$workdir/serve.log"
store_dir="$workdir/store"
locad_bin="$workdir/locad"
serve_pid=
trap 'rm -f "$raw" "$exp_json"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; rm -rf "$workdir"' EXIT
go build -o "$locad_bin" ./cmd/locad

# start_serve <logfile>: serve on an ephemeral port over the shared store.
start_serve() {
    "$locad_bin" serve -addr 127.0.0.1:0 -store-dir "$store_dir" >"$1" 2>&1 &
    serve_pid=$!
    addr=
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^locad serve: listening on //p' "$1")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "locad serve did not start"; cat "$1"; exit 1; }
}

start_serve "$serve_log"
"$locad_bin" loadgen -addr "$addr" -schema mis -graph cycle -n 256 -duration 2s -batch -json >"$serve_json"
kill -TERM "$serve_pid" && wait "$serve_pid"
serve_pid=
echo "serving-layer cold/warm/batch loadgen collected"

# Restart recovery: relaunch on the now-warm store and price the first
# decode (disk load) against a full cache-bypassing recompute.
serve_log2="$workdir/serve2.log"
start_serve "$serve_log2"
"$locad_bin" loadgen -addr "$addr" -schema mis -graph cycle -n 256 -probe -probe-cold >"$restart_json"
kill -TERM "$serve_pid" && wait "$serve_pid"
serve_pid=
echo "serving-layer restart-recovery probe collected"

# Cluster sweep: routed cold/warm throughput at 1/2/4/8 shards via the
# digest-routed shard fleet (router + shard child processes per point),
# with the router stats scrape (forwards, replica hits, failovers) embedded
# per point. The report records the host's CPU count — the regression
# gate's scaling floor is hardware-aware (DESIGN.md decision 9).
cluster_json="$workdir/cluster.json"
"$locad_bin" loadgen -cluster -cluster-shards 1,2,4,8 -schema mis -graph cycle -n 256 \
    -duration 2s -json >"$cluster_json"
echo "cluster shard sweep collected"

# Message-reduction comparison: the frugal engine's skeleton simulation vs
# the stock scheduler on the saturating 4096-node grid flood. The report
# lands under the "msgred" key and the regression gate enforces the ≥3x
# message-reduction floor at ≤2x rounds.
msgred_json="$workdir/msgred.json"
"$locad_bin" msgred -graph grid -n 4096 -json >"$msgred_json"
echo "frugal-engine message-reduction comparison collected"

# Scheduler-sharding comparison: contiguous index shards vs the low-diameter
# decomposition's low-cut ball shards on the flood workload. Lands under the
# "decomp" key; the gate checks output identity always and the locality
# speedup only on hosts with enough cores.
decomp_json="$workdir/decomp.json"
"$locad_bin" decomp -sched -graphs grid,torus,gnp -n 4096 -beta 0.1 \
    -sched-workers 2,4,8 -reps 3 -json >"$decomp_json"
echo "scheduler-sharding decomposition comparison collected"

# Deterministic-LLL comparison: Moser–Tardos vs the conditional-expectations
# solvers on the 1024-cycle, with the rotating-seed warm-hit probe of the
# det-mode server schemas. Lands under the "detlll" key.
detlll_json="$workdir/detlll.json"
"$locad_bin" detlll -graph cycle -n 1024 -seeds 5 -json >"$detlll_json"
echo "deterministic-LLL comparison collected"

# Splice the restart probe into the serve report as its "restart" key,
# preserving the first-line-"{" / last-line-"}" shape embed() expects.
merged="$workdir/serve_merged.json"
{
    sed '$ d' "$serve_json"
    printf '  ,"restart":\n'
    cat "$restart_json"
    printf '}\n'
} > "$merged"
serve_json="$merged"

awk -v date="$(date +%F)" -v race_seconds="$race_seconds" -v expfile="$exp_json" -v servefile="$serve_json" -v clusterfile="$cluster_json" -v msgredfile="$msgred_json" -v decompfile="$decomp_json" -v detlllfile="$detlll_json" '
BEGIN { n = 0 }
/^cpu: /  { cpu = substr($0, 6) }
/^Benchmark/ {
    name = $1; iters = $2
    rec = sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, iters)
    # Past the name and iteration count, a bench line is value/unit pairs:
    # "123 ns/op 456 B/op 7 allocs/op 89 rounds/s ...".
    for (i = 3; i + 1 <= NF; i += 2) {
        val = $(i); unit = $(i + 1)
        if (unit == "ns/op")           key = "ns_per_op"
        else if (unit == "B/op")       key = "bytes_per_op"
        else if (unit == "allocs/op")  key = "allocs_per_op"
        else { key = unit; gsub(/[^A-Za-z0-9]+/, "_", key) }
        rec = rec sprintf(", \"%s\": %s", key, val)
    }
    rec = rec "}"
    recs[n++] = rec
}
# embed splices a multi-line JSON file (first line "{", last line "}")
# into the report as the value of key, followed by a comma.
function embed(file, key,    m, emblines, i) {
    m = 0
    while ((getline line < file) > 0) emblines[m++] = line
    if (m > 0) {
        printf "  \"%s\": %s\n", key, emblines[0]
        for (i = 1; i < m - 1; i++) printf "  %s\n", emblines[i]
        printf "  %s,\n", emblines[m - 1]
    }
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"cpu\": \"%s\",\n  \"race_equivalence_seconds\": %s,\n", date, cpu, race_seconds
    embed(expfile, "experiments")
    embed(servefile, "serve")
    embed(clusterfile, "cluster")
    embed(msgredfile, "msgred")
    embed(decompfile, "decomp")
    embed(detlllfile, "detlll")
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
}
' "$raw" > "$out"

echo "wrote $out"
