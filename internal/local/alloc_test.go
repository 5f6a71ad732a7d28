package local

import (
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/obs"
)

// ballAllocCeiling bounds the allocations of one single-worker ball-engine
// run beyond its outputs slice: the engine's closures and the like, but
// nothing per node — every view is rebuilt in place in the worker's
// builder.
const ballAllocCeiling = 4

// TestBallEngineAllocationsIndependentOfN re-measures the ball engine's
// allocations per run with a trivial algorithm and gates them: a 30x30
// grid at radius 6 (balls of up to 85 nodes) must allocate no more than a
// 10x10 grid does, and at most the ceiling.
func TestBallEngineAllocationsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	obs.SetDefault(nil)
	trivial := func(*View) any { return nil }
	allocs := func(g *graph.Graph) float64 {
		cfg := RunConfig{Workers: 1}
		if _, _, err := TryRunBallConfig(g, nil, 6, trivial, cfg); err != nil { // size the builder
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := TryRunBallConfig(g, nil, 6, trivial, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	large := allocs(graph.Grid2D(30, 30))
	small := allocs(graph.Grid2D(10, 10))
	t.Logf("allocs/run: 30x30 grid %.0f, 10x10 grid %.0f", large, small)
	if large > small {
		t.Errorf("allocations grow with n: %.0f per run on a 30x30 grid vs %.0f on a 10x10 grid", large, small)
	}
	if large > ballAllocCeiling {
		t.Errorf("ball engine allocated %.0f times per run, ceiling %d", large, ballAllocCeiling)
	}
}
