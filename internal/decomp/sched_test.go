package decomp

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/local"
)

// viewFP is a canonical summary of a gathered view — sorted edge ID pairs
// plus sorted per-node (ID, advice, true degree, distance) tuples — so any
// difference between two runs' views shows up in the output comparison. It
// mirrors the engine suite's fingerprint without reaching into local's
// test internals.
func viewFP(view *local.View) any {
	edges := make([]string, 0, view.G.M())
	for _, e := range view.G.Edges() {
		a, b := view.G.ID(e.U), view.G.ID(e.V)
		if a > b {
			a, b = b, a
		}
		edges = append(edges, fmt.Sprintf("%d~%d;", a, b))
	}
	sort.Strings(edges)
	var sb strings.Builder
	fmt.Fprintf(&sb, "c%d|r%d|n%d|d%d|", view.G.ID(view.Center), view.Radius, view.N, view.Delta)
	sb.WriteString(strings.Join(edges, ""))
	ids := make([]int64, view.G.N())
	for i := range ids {
		ids[i] = view.G.ID(i)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		i := view.NodeByID(id)
		fmt.Fprintf(&sb, "v%d:%s:%d:%d|", id, view.Advice[i].String(), view.TrueDegree[i], view.Dist[i])
	}
	return sb.String()
}

// shardProtocols is the protocol sweep of the partitioned-scheduler
// equivalence tests: the view-gathering protocol (outputs are full view
// fingerprints, so any delivery difference is caught) and the flooding
// workload with a fixed horizon.
func shardProtocols(g *graph.Graph) map[string]local.Protocol {
	return map[string]local.Protocol{
		"gather": &local.GatherProtocol{Radius: 2, Decide: viewFP},
		"flood":  &local.FloodProtocol{SourceID: g.ID(0), Rounds: g.N()},
	}
}

// TestPartitionedSchedulerEquivalence is satellite 3's core property: with
// RunConfig.Partition set to the low-cut ball shards, the sharded scheduler
// and the frugal engine produce outputs and stats bit-identical to their
// contiguous-sharding runs (and to the sequential reference) at every worker
// count.
func TestPartitionedSchedulerEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for gname, g := range decompGraphs(t, seed) {
			rng := rand.New(rand.NewSource(seed * 31))
			advice := make(local.Advice, g.N())
			for v := range advice {
				advice[v] = bitstr.New(rng.Intn(2))
			}
			part := ShardPartition(0.2, seed)
			for pname, p := range shardProtocols(g) {
				refOut, refStats, err := local.RunSequential(g, p, advice)
				if err != nil {
					t.Fatalf("seed %d %s/%s: sequential engine: %v", seed, gname, pname, err)
				}
				for _, w := range []int{2, 8} {
					contOut, contStats, err := local.RunMessageConfig(g, p, advice, local.RunConfig{Workers: w})
					if err != nil {
						t.Fatalf("seed %d %s/%s workers %d: contiguous: %v", seed, gname, pname, w, err)
					}
					partOut, partStats, err := local.RunMessageConfig(g, p, advice,
						local.RunConfig{Workers: w, Partition: part})
					if err != nil {
						t.Fatalf("seed %d %s/%s workers %d: partitioned: %v", seed, gname, pname, w, err)
					}
					if partStats != contStats || partStats != refStats {
						t.Fatalf("seed %d %s/%s workers %d: stats partitioned %+v, contiguous %+v, sequential %+v",
							seed, gname, pname, w, partStats, contStats, refStats)
					}
					for v := range partOut {
						if partOut[v] != contOut[v] || partOut[v] != refOut[v] {
							t.Fatalf("seed %d %s/%s workers %d node %d: partitioned %v, contiguous %v, sequential %v",
								seed, gname, pname, w, v, partOut[v], contOut[v], refOut[v])
						}
					}
					// The frugal engine runs the same scheduler core, so the
					// ball shards must leave its outputs and its transport
					// stats untouched as well.
					fContOut, fContStats, err := local.RunFrugalConfig(g, p, advice, local.RunConfig{Workers: w})
					if err != nil {
						t.Fatalf("seed %d %s/%s workers %d: frugal contiguous: %v", seed, gname, pname, w, err)
					}
					fPartOut, fPartStats, err := local.RunFrugalConfig(g, p, advice,
						local.RunConfig{Workers: w, Partition: part})
					if err != nil {
						t.Fatalf("seed %d %s/%s workers %d: frugal partitioned: %v", seed, gname, pname, w, err)
					}
					if fPartStats != fContStats {
						t.Fatalf("seed %d %s/%s workers %d: frugal stats partitioned %+v, contiguous %+v",
							seed, gname, pname, w, fPartStats, fContStats)
					}
					for v := range fPartOut {
						if fPartOut[v] != fContOut[v] || fPartOut[v] != refOut[v] {
							t.Fatalf("seed %d %s/%s workers %d node %d: frugal partitioned %v, contiguous %v, sequential %v",
								seed, gname, pname, w, v, fPartOut[v], fContOut[v], refOut[v])
						}
					}
				}
			}
		}
	}
}

// TestPartitionedCrashAgreement mirrors the crash-fault engine agreement
// suite with ball-shard partitioning enabled: the crashed node's typed
// error and every survivor's output are identical to the contiguous
// scheduler and the sequential engine.
func TestPartitionedCrashAgreement(t *testing.T) {
	g := graph.Cycle(30)
	plan := &fault.Plan{CrashNode: 5, CrashRound: 2}
	p := &local.GatherProtocol{Radius: 3, Decide: viewFP}
	part := ShardPartition(0.2, 3)

	refOut, refStats, err := local.RunSequentialConfig(g, p, nil, local.RunConfig{Fault: plan})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	var ce fault.CrashError
	if !errors.As(refOut[5].(error), &ce) || ce.Node != 5 || ce.Round != 2 {
		t.Fatalf("crashed node output %v, want CrashError{Node:5, Round:2}", refOut[5])
	}
	if !errors.Is(refOut[5].(error), fault.ErrCrashed) {
		t.Fatalf("crash output does not unwrap to ErrCrashed: %v", refOut[5])
	}

	for _, w := range []int{2, 8} {
		out, stats, err := local.RunMessageConfig(g, p, nil,
			local.RunConfig{Workers: w, Fault: plan, Partition: part})
		if err != nil {
			t.Fatalf("partitioned workers %d: %v", w, err)
		}
		if stats != refStats {
			t.Fatalf("partitioned workers %d: stats %+v, sequential %+v", w, stats, refStats)
		}
		for v := range out {
			if fmt.Sprint(out[v]) != fmt.Sprint(refOut[v]) {
				t.Fatalf("partitioned workers %d node %d: %v, sequential %v", w, v, out[v], refOut[v])
			}
		}
		fOut, _, err := local.RunFrugalConfig(g, p, nil,
			local.RunConfig{Workers: w, Fault: plan, Partition: part})
		if err != nil {
			t.Fatalf("frugal partitioned workers %d: %v", w, err)
		}
		for v := range fOut {
			if fmt.Sprint(fOut[v]) != fmt.Sprint(refOut[v]) {
				t.Fatalf("frugal partitioned workers %d node %d: %v, sequential %v", w, v, fOut[v], refOut[v])
			}
		}
	}
}

// TestPartitionedAdviceFlipAgreement mirrors the advice-corruption engine
// agreement suite with ball-shard partitioning enabled.
func TestPartitionedAdviceFlipAgreement(t *testing.T) {
	g := graph.Cycle(24)
	plan := &fault.Plan{Seed: 11, FlipRate: 0.4}
	p := &local.GatherProtocol{Radius: 2, Decide: viewFP}
	advice := make(local.Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(v%2, (v>>1)%2)
	}

	refOut, refStats, err := local.RunSequentialConfig(g, p, advice, local.RunConfig{Fault: plan})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, w := range []int{2, 8} {
		out, stats, err := local.RunMessageConfig(g, p, advice,
			local.RunConfig{Workers: w, Fault: plan, Partition: ShardPartition(0.3, 11)})
		if err != nil {
			t.Fatalf("partitioned workers %d: %v", w, err)
		}
		if stats != refStats {
			t.Fatalf("partitioned workers %d: stats %+v, sequential %+v", w, stats, refStats)
		}
		for v := range out {
			if out[v] != refOut[v] {
				t.Fatalf("partitioned workers %d node %d: %v, sequential %v", w, v, out[v], refOut[v])
			}
		}
	}
}

// TestShardPartitionDecompError checks error propagation through the run:
// a partition built with an invalid rate fails the scheduler run with an
// error wrapping ErrBeta (satellite 1's pattern applied to the tentpole's
// boundary).
func TestShardPartitionDecompError(t *testing.T) {
	g := graph.Cycle(16)
	_, _, err := local.RunMessageConfig(g, &local.GatherProtocol{Radius: 1, Decide: viewFP}, nil,
		local.RunConfig{Workers: 4, Partition: ShardPartition(-1, 1)})
	if !errors.Is(err, ErrBeta) {
		t.Fatalf("got %v, want an error wrapping decomp.ErrBeta", err)
	}
	// With a single worker the partition stage is skipped entirely, so even
	// an invalid rate cannot fail the run.
	if _, _, err := local.RunMessageConfig(g, &local.GatherProtocol{Radius: 1, Decide: viewFP}, nil,
		local.RunConfig{Workers: 1, Partition: ShardPartition(-1, 1)}); err != nil {
		t.Fatalf("single-worker run invoked the partition stage: %v", err)
	}
}
