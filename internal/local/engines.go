package local

import (
	"fmt"

	"localadvice/internal/graph"
)

// This file gives the four engines one dispatchable surface for view-based
// LOCAL algorithms. The production decoders (orient, 3-coloring, …) are all
// "gather a radius-T view, decide" algorithms; RunDecider executes such a
// decide function on any engine by name — directly on the ball engine, and
// wrapped in a GatherProtocol flood on the three message engines. The
// engine-equivalence and seed-independence test walls sweep EngineNames()
// so a schema's output can be pinned bit-identical across every engine
// without each test hand-rolling the dispatch.

// EngineNames lists the four engines RunDecider accepts, in the order the
// equivalence tests sweep them: the parallel view engine, the sharded
// scheduler, the sequential reference, and the bandwidth-frugal skeleton
// engine. It is the one list of engines: the CLI's -engine flags and the
// test walls read it rather than naming engines themselves.
func EngineNames() []string {
	return []string{"ball", "scheduler", "sequential", "frugal"}
}

// ErrUnknownEngine tags RunDecider calls naming an engine outside
// EngineNames.
var ErrUnknownEngine = fmt.Errorf("local: unknown engine")

// RunDecider runs a view-decide function on every node of g using the named
// engine. The ball engine evaluates decide on directly-built views; the
// message engines flood (ID, degree, advice, adjacency) for radius rounds
// via GatherProtocol and decide on the assembled views. For a decide that
// is a pure function of the view (all production decoders are), the outputs
// are bit-identical across all four engines and every worker count; only
// Stats (rounds, messages) differ by engine, reflecting what each transport
// actually did.
func RunDecider(engine string, g *graph.Graph, advice Advice, radius int, decide func(*View) any, cfg RunConfig) ([]any, Stats, error) {
	if engine == "ball" {
		return TryRunBallConfig(g, advice, radius, decide, cfg)
	}
	p := &GatherProtocol{Radius: radius, Decide: decide}
	switch engine {
	case "scheduler":
		return RunMessageConfig(g, p, advice, cfg)
	case "sequential":
		return RunSequentialConfig(g, p, advice, cfg)
	case "frugal":
		return RunFrugalConfig(g, p, advice, cfg)
	default:
		return nil, Stats{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownEngine, engine, EngineNames())
	}
}
