package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// TestMain runs the tests on one P, as the benchmark runs by default.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// shortOps and shortTraceOps size the short mode: a fixed op count instead
// of a window, so that two runs of one seed do exactly the same work.
var (
	shortOps      = map[string]int{"decode-fresh": 18, "decode-hot": 600, "encode-churn": 60, "routed-hot": 600}
	shortTraceOps = map[string]int{"decode-fresh": 36, "decode-hot": 600, "encode-churn": 90, "routed-hot": 600}
)

func shortConfig(t *testing.T, name string, seed int64) config {
	return config{workload: name, seed: seed, ops: shortOps[name], traceOps: shortTraceOps[name],
		setups: 1, workdir: t.TempDir()}
}

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func assertMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

func timedShort(t *testing.T, name string, seed int64) *timedReport {
	t.Helper()
	w, _ := workloadByName(name)
	rep, err := runTimed(w, shortConfig(t, name, seed))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted != shortOps[name] {
		t.Fatalf("seed %d: correct=%v attempted=%d failed=%d", seed, rep.result.Correct, rep.result.Attempted, rep.result.Failed)
	}
	return rep
}

func tracedShort(t *testing.T, name string, seed int64) *traceReport {
	t.Helper()
	w, _ := workloadByName(name)
	rep, err := runTraced(w, shortConfig(t, name, seed))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.result.Correct || rep.result.Failed != 0 {
		t.Fatalf("traced seed %d: correct=%v failed=%d", seed, rep.result.Correct, rep.result.Failed)
	}
	return rep
}

// TestExactCountsRepeat runs every workload's traced replay twice with one
// seed: the counts the program and its layers report must be identical.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			a := tracedShort(t, w.name, 11)
			b := tracedShort(t, w.name, 11)
			for name, v := range a.counts {
				if b.counts[name] != v {
					t.Errorf("%s: %d then %d", name, v, b.counts[name])
				}
			}
			if a.counts["ops"] != int64(shortTraceOps[w.name]) {
				t.Errorf("replayed %d ops, want %d", a.counts["ops"], shortTraceOps[w.name])
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON checks that a timed run emits exactly the
// end-to-end metrics and a traced run exactly the per-layer metrics
// BENCHMARK.json declares, each with its unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			assertMetrics(t, "timed", timedShort(t, w.name, 11).result.Metrics, endToEnd)
			assertMetrics(t, "traced", tracedShort(t, w.name, 11).result.Metrics, perLayer)
		})
	}
}

// TestSeedChangesInputs: another seed generates other requests, and they
// pass the output checks too.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.plan(11, shortOps[w.name])
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.plan(12, shortOps[w.name])
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(a) == fingerprint(b) {
				t.Fatal("seeds 11 and 12 generate the same requests")
			}
			timedShort(t, w.name, 12)
		})
	}
}

// TestHotWorkloadsStayHot pins the properties the hot workloads are chosen
// for: after set-up every read is an LRU hit and the engine does no work;
// routed reads rotate over owner and replica without failover.
func TestHotWorkloadsStayHot(t *testing.T) {
	for _, name := range []string{"decode-hot", "routed-hot"} {
		t.Run(name, func(t *testing.T) {
			m := tracedShort(t, name, 11).result.Metrics
			if m["cache.hit_ratio"].Value != 1 {
				t.Errorf("cache.hit_ratio = %v, want 1", m["cache.hit_ratio"].Value)
			}
			if m["server.engine_computes_per_op"].Value != 0 {
				t.Errorf("engine computes per op = %v, want 0", m["server.engine_computes_per_op"].Value)
			}
			if name == "routed-hot" {
				if m["cluster.failovers"].Value != 0 || m["cluster.replications"].Value == 0 || m["cluster.replica_hit_ratio"].Value == 0 {
					t.Errorf("failovers %v, replications %v, replica hit ratio %v", m["cluster.failovers"].Value,
						m["cluster.replications"].Value, m["cluster.replica_hit_ratio"].Value)
				}
			}
		})
	}
}

// TestChurnReachesTheStore pins encode-churn's shape: stored decodes load
// advice (and mis tables) from disk, and the LRU evicts.
func TestChurnReachesTheStore(t *testing.T) {
	rep := tracedShort(t, "encode-churn", 11)
	if rep.counts["persist.hits"] == 0 || rep.counts["persist.puts"] == 0 || rep.counts["cache.evictions"] == 0 {
		t.Errorf("store hits %d, puts %d, evictions %d: want all > 0",
			rep.counts["persist.hits"], rep.counts["persist.puts"], rep.counts["cache.evictions"])
	}
}

// fingerprint hashes a plan's requests.
func fingerprint(p *plan) string {
	h := sha256.New()
	for _, o := range p.seq {
		h.Write(o.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
