package local

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
)

// TestNormalizeWorkers pins the shared worker-count resolution: negative is
// sequential, zero is GOMAXPROCS, and the result never exceeds the node
// count. Both the message engines and the ball engine resolve through this
// one function, so this table is the whole contract.
func TestNormalizeWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	cases := []struct {
		workers, n, want int
	}{
		{-1, 100, 1},
		{-7, 100, 1},
		{0, 100, min(maxprocs, 100)},
		{1, 100, 1},
		{8, 100, 8},
		{8, 4, 4},
		{-1, 0, 1},
		{0, 0, 1},
		{8, 0, 1},
	}
	for _, c := range cases {
		got := RunConfig{Workers: c.workers}.normalize(c.n)
		if got != c.want {
			t.Errorf("normalize(workers=%d, n=%d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// gatherDecide is the engine-equivalence workload: a pure function of the
// radius-T view.
func gatherDecide(view *View) any { return view.G.N()*1_000_000 + view.G.M() }

// TestCrashAgreementAcrossEngines runs the same crash plan through the
// sequential reference and the scheduler and checks they agree exactly:
// same outputs (including the typed crash error in the crashed node's
// slot), same rounds, same message count.
func TestCrashAgreementAcrossEngines(t *testing.T) {
	g := graph.Cycle(30)
	cfg := RunConfig{Fault: &fault.Plan{CrashNode: 5, CrashRound: 2}}
	protocol := func() *GatherProtocol { return &GatherProtocol{Radius: 3, Decide: gatherDecide} }

	type result struct {
		name    string
		outputs []any
		stats   Stats
	}
	var results []result
	for _, engine := range []struct {
		name string
		run  func() ([]any, Stats, error)
	}{
		{"sequential", func() ([]any, Stats, error) { return RunSequentialConfig(g, protocol(), nil, cfg) }},
		{"message", func() ([]any, Stats, error) { return RunMessageConfig(g, protocol(), nil, cfg) }},
	} {
		outputs, stats, err := engine.run()
		if err != nil {
			t.Fatalf("%s: %v", engine.name, err)
		}
		results = append(results, result{engine.name, outputs, stats})
	}
	ref := results[0]
	crashErr, ok := ref.outputs[5].(fault.CrashError)
	if !ok || !errors.Is(crashErr, fault.ErrCrashed) {
		t.Fatalf("crashed node output = %#v, want a fault.CrashError wrapping ErrCrashed", ref.outputs[5])
	}
	if crashErr.Node != 5 || crashErr.Round != 2 {
		t.Fatalf("crash error = %+v, want node 5 round 2", crashErr)
	}
	for _, r := range results[1:] {
		if r.stats != ref.stats {
			t.Errorf("%s stats %+v != %s stats %+v", r.name, r.stats, ref.name, ref.stats)
		}
		for v := range ref.outputs {
			if fmt.Sprint(r.outputs[v]) != fmt.Sprint(ref.outputs[v]) {
				t.Fatalf("%s and %s disagree at node %d: %v vs %v",
					r.name, ref.name, v, r.outputs[v], ref.outputs[v])
			}
		}
	}

	// The frugal engine runs the same sweep, so its outputs — including the
	// typed crash error — must match exactly; only its Stats (skeleton
	// transport, forwarding overhead) legitimately differ.
	frugalOut, _, err := RunFrugalConfig(g, protocol(), nil, cfg)
	if err != nil {
		t.Fatalf("frugal: %v", err)
	}
	fe, ok := frugalOut[5].(fault.CrashError)
	if !ok || fe != crashErr {
		t.Fatalf("frugal crashed node output = %#v, want %+v", frugalOut[5], crashErr)
	}
	for v := range ref.outputs {
		if fmt.Sprint(frugalOut[v]) != fmt.Sprint(ref.outputs[v]) {
			t.Fatalf("frugal and %s disagree at node %d: %v vs %v",
				ref.name, v, frugalOut[v], ref.outputs[v])
		}
	}

	// The ball engine models crashes without per-round message flow, so only
	// the typed error is comparable across the engine split.
	ballOut, _, err := TryRunBallConfig(g, nil, 3, gatherDecide, cfg)
	if err != nil {
		t.Fatalf("ball: %v", err)
	}
	be, ok := ballOut[5].(fault.CrashError)
	if !ok || be != crashErr {
		t.Fatalf("ball crashed node output = %#v, want %+v", ballOut[5], crashErr)
	}
}

// TestAdviceFlipAgreementAcrossEngines runs the same seeded advice-flip plan
// through all four engines on a view-fingerprint workload and checks every
// node's output is identical — corrupted advice must corrupt every engine
// the same way.
func TestAdviceFlipAgreementAcrossEngines(t *testing.T) {
	g := graph.Cycle(24)
	advice := make(Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(1, v%2, 1)
	}
	cfg := RunConfig{Fault: &fault.Plan{Seed: 11, FlipRate: 0.4}}
	const radius = 2
	protocol := func() *GatherProtocol { return &GatherProtocol{Radius: radius, Decide: viewFingerprint} }

	refOut, _, err := RunMessageConfig(g, protocol(), advice, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() ([]any, Stats, error){
		"sequential": func() ([]any, Stats, error) { return RunSequentialConfig(g, protocol(), advice, cfg) },
		"frugal":     func() ([]any, Stats, error) { return RunFrugalConfig(g, protocol(), advice, cfg) },
		"ball": func() ([]any, Stats, error) {
			return TryRunBallConfig(g, advice, radius, viewFingerprint, cfg)
		},
	} {
		out, _, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range refOut {
			if out[v] != refOut[v] {
				t.Fatalf("%s disagrees with the scheduler at node %d under flipped advice:\n%v\nvs\n%v",
					name, v, out[v], refOut[v])
			}
		}
	}
}

// TestBallEngineCrash pins the ball engine's crash semantics: a node crashed
// within the decoding radius yields a CrashError output, a crash scheduled
// past the radius never fires.
func TestBallEngineCrash(t *testing.T) {
	g := graph.Cycle(20)
	algo := func(view *View) any { return view.G.N() }

	outputs, _, err := TryRunBallConfig(g, nil, 2, algo, RunConfig{
		Fault: &fault.Plan{CrashNode: 3, CrashRound: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := outputs[3].(error); !ok || !errors.Is(e, fault.ErrCrashed) {
		t.Fatalf("outputs[3] = %#v, want a crash error", outputs[3])
	}
	for v, out := range outputs {
		if v != 3 {
			if _, ok := out.(error); ok {
				t.Fatalf("node %d unexpectedly crashed: %v", v, out)
			}
		}
	}

	outputs, _, err = TryRunBallConfig(g, nil, 2, algo, RunConfig{
		Fault: &fault.Plan{CrashNode: 3, CrashRound: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := outputs[3].(error); ok {
		t.Fatalf("crash at round 5 fired within radius 2: %v", outputs[3])
	}
}

// TestApplyDeterministicAndNonMutating checks the corruption layer's two core
// promises: the same plan applied twice produces bit-identical results, and
// the caller's graph and advice are never mutated.
func TestApplyDeterministicAndNonMutating(t *testing.T) {
	g := graph.Cycle(40)
	advice := make(Advice, g.N())
	for v := range advice {
		advice[v] = bitstr.New(1, 0, 1)
	}
	orig := make(Advice, len(advice))
	copy(orig, advice)

	plan := &fault.Plan{Seed: 7, FlipRate: 0.3, TruncateRate: 0.2, ReassignIDs: true}
	g1, a1, rep1 := plan.Apply(g, advice)
	g2, a2, rep2 := plan.Apply(g, advice)
	if rep1 != rep2 {
		t.Fatalf("reports differ: %+v vs %+v", rep1, rep2)
	}
	if rep1.FlippedBits == 0 {
		t.Fatal("flip rate 0.3 on 120 bits flipped nothing; corruption is not being applied")
	}
	for v := range a1 {
		if !a1[v].Equal(a2[v]) {
			t.Fatalf("node %d advice differs between identical applications: %v vs %v", v, a1[v], a2[v])
		}
	}
	for v := 0; v < g.N(); v++ {
		if g1.ID(v) != g2.ID(v) {
			t.Fatalf("node %d ID differs between identical applications", v)
		}
	}
	// Inputs untouched.
	for v := range advice {
		if !advice[v].Equal(orig[v]) {
			t.Fatalf("Apply mutated the caller's advice at node %d", v)
		}
		if g.ID(v) != int64(v+1) {
			t.Fatalf("Apply mutated the caller's graph IDs at node %d", v)
		}
	}
	// Reassignment really happened on the copy: same ID multiset, different
	// assignment (seed 7 is not the identity permutation on 40 nodes).
	moved := 0
	for v := 0; v < g.N(); v++ {
		if g1.ID(v) != g.ID(v) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("ReassignIDs left every ID in place")
	}
}

// TestInactivePlanReturnsInputs checks the fast path: a nil or zero plan
// passes the inputs through unchanged, same pointers, so fault-free runs pay
// nothing.
func TestInactivePlanReturnsInputs(t *testing.T) {
	g := graph.Cycle(8)
	advice := make(Advice, g.N())
	for _, plan := range []*fault.Plan{nil, {}} {
		fg, fadv, rep := plan.Apply(g, advice)
		if fg != g || &fadv[0] != &advice[0] {
			t.Fatalf("inactive plan %+v copied its inputs", plan)
		}
		if rep != (fault.Report{}) {
			t.Fatalf("inactive plan reported work: %+v", rep)
		}
	}
}

// TestTryVariantsRejectShortAdvice checks every engine entry point reports
// malformed advice as a typed error before the run starts.
func TestTryVariantsRejectShortAdvice(t *testing.T) {
	g := graph.Cycle(10)
	short := make(Advice, 4)
	algo := func(view *View) any { return 0 }

	if _, _, err := TryRunBallConfig(g, short, 1, algo, RunConfig{}); !errors.Is(err, ErrAdviceLength) {
		t.Errorf("TryRunBallConfig: err = %v, want ErrAdviceLength", err)
	}
	if _, _, err := TryRunBall(g, short, 1, algo); !errors.Is(err, ErrAdviceLength) {
		t.Errorf("TryRunBall: err = %v, want ErrAdviceLength", err)
	}
	protocol := &GatherProtocol{Radius: 1, Decide: gatherDecide}
	if _, _, err := RunMessageConfig(g, protocol, short, RunConfig{}); !errors.Is(err, ErrAdviceLength) {
		t.Errorf("RunMessageConfig: err = %v, want ErrAdviceLength", err)
	}
	if _, _, err := RunSequential(g, protocol, short); !errors.Is(err, ErrAdviceLength) {
		t.Errorf("RunSequential: err = %v, want ErrAdviceLength", err)
	}
	if _, _, err := RunFrugal(g, protocol, short); !errors.Is(err, ErrAdviceLength) {
		t.Errorf("RunFrugal: err = %v, want ErrAdviceLength", err)
	}
}

// TestCrashAcrossWorkerCounts checks that crash faults keep the worker-count
// equivalence guarantee: the sharded scheduler produces identical results at
// every worker count, crash or no crash.
func TestCrashAcrossWorkerCounts(t *testing.T) {
	g := graph.Cycle(64)
	cfg := func(w int) RunConfig {
		return RunConfig{Workers: w, Fault: &fault.Plan{CrashNode: 10, CrashRound: 1}}
	}
	refOut, refStats, err := RunMessageConfig(g, &GatherProtocol{Radius: 3, Decide: gatherDecide}, nil, cfg(-1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 2, 8} {
		out, stats, err := RunMessageConfig(g, &GatherProtocol{Radius: 3, Decide: gatherDecide}, nil, cfg(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if stats != refStats {
			t.Errorf("workers=%d stats %+v != %+v", w, stats, refStats)
		}
		for v := range refOut {
			if fmt.Sprint(out[v]) != fmt.Sprint(refOut[v]) {
				t.Fatalf("workers=%d disagrees at node %d", w, v)
			}
		}
	}
}
