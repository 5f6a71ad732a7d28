package local

import (
	"fmt"
	"reflect"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/obs"
)

// deterministicRounds extracts the worker-independent projection of a
// collector's round metrics.
func deterministicRounds(c *obs.Collector) []obs.RoundMetric {
	rounds := c.Rounds()
	out := make([]obs.RoundMetric, len(rounds))
	for i, r := range rounds {
		out[i] = r.Deterministic()
	}
	return out
}

// TestMetricsWorkerCountDeterminism is the acceptance gate for the metrics
// layer: the scheduler's per-round counters (round, active nodes, messages,
// bytes) must agree bit-for-bit across workers ∈ {-1, 1, 8}, and the ball
// engine's single round record likewise.
func TestMetricsWorkerCountDeterminism(t *testing.T) {
	g := graph.Grid2D(12, 12)
	var want []obs.RoundMetric
	var wantOut string
	for _, workers := range []int{-1, 1, 8} {
		c := &obs.Collector{}
		outputs, _, err := RunMessageConfig(g, &GatherProtocol{Radius: 2, Decide: gatherDecide}, nil,
			RunConfig{Workers: workers, Metrics: c})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := deterministicRounds(c)
		if len(got) == 0 {
			t.Fatalf("workers=%d recorded no rounds", workers)
		}
		out := fmt.Sprintf("%v", outputs)
		if want == nil {
			want, wantOut = got, out
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: per-round metrics differ\n got: %+v\nwant: %+v", workers, got, want)
		}
		if out != wantOut {
			t.Errorf("workers=%d: outputs differ", workers)
		}
	}

	var wantBall []obs.RoundMetric
	for _, workers := range []int{-1, 1, 8} {
		c := &obs.Collector{}
		if _, _, err := TryRunBallConfig(g, nil, 2, gatherDecide, RunConfig{Workers: workers, Metrics: c}); err != nil {
			t.Fatalf("ball workers=%d: %v", workers, err)
		}
		got := deterministicRounds(c)
		if wantBall == nil {
			wantBall = got
			continue
		}
		if !reflect.DeepEqual(got, wantBall) {
			t.Errorf("ball workers=%d: metrics differ\n got: %+v\nwant: %+v", workers, got, wantBall)
		}
	}
}

// TestMetricsEngineAgreement pins that the deterministic counters agree
// between the scheduler and the sequential engine (modulo the Engine
// label): same rounds, same active-node profile, same per-round message and
// byte counts.
func TestMetricsEngineAgreement(t *testing.T) {
	g := graph.Torus2D(6, 6)
	protocol := func() *GatherProtocol { return &GatherProtocol{Radius: 2, Decide: gatherDecide} }
	type runFn func(c *obs.Collector) error
	runs := map[string]runFn{
		"scheduler": func(c *obs.Collector) error {
			_, _, err := RunMessageConfig(g, protocol(), nil, RunConfig{Workers: 2, Metrics: c})
			return err
		},
		"sequential": func(c *obs.Collector) error {
			_, _, err := RunSequentialConfig(g, protocol(), nil, RunConfig{Metrics: c})
			return err
		},
	}
	var want []obs.RoundMetric
	var wantFrom string
	for name, run := range runs {
		c := &obs.Collector{}
		if err := run(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := deterministicRounds(c)
		for i := range got {
			got[i].Engine = "" // engines differ only in the label
		}
		if want == nil {
			want, wantFrom = got, name
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics differ from %s\n got: %+v\nwant: %+v", name, wantFrom, got, want)
		}
	}
}

// TestMetricsDisabledIdenticalOutputs is the other acceptance half: with
// Metrics nil the scheduler, sequential and ball engines produce
// byte-identical outputs and stats to a metrics-enabled run (the
// instrumentation observes, never perturbs).
func TestMetricsDisabledIdenticalOutputs(t *testing.T) {
	g := graph.Cycle(48)
	protocol := func() *GatherProtocol { return &GatherProtocol{Radius: 3, Decide: gatherDecide} }
	type engine struct {
		name string
		run  func(cfg RunConfig) ([]any, Stats, error)
	}
	engines := []engine{
		{"scheduler", func(cfg RunConfig) ([]any, Stats, error) {
			return RunMessageConfig(g, protocol(), nil, cfg)
		}},
		{"sequential", func(cfg RunConfig) ([]any, Stats, error) {
			return RunSequentialConfig(g, protocol(), nil, cfg)
		}},
		{"ball", func(cfg RunConfig) ([]any, Stats, error) {
			return TryRunBallConfig(g, nil, 3, gatherDecide, cfg)
		}},
	}
	for _, e := range engines {
		off, offStats, err := e.run(RunConfig{Workers: 2})
		if err != nil {
			t.Fatalf("%s disabled: %v", e.name, err)
		}
		c := &obs.Collector{}
		on, onStats, err := e.run(RunConfig{Workers: 2, Metrics: c})
		if err != nil {
			t.Fatalf("%s enabled: %v", e.name, err)
		}
		if fmt.Sprintf("%v", off) != fmt.Sprintf("%v", on) {
			t.Errorf("%s: outputs differ between metrics on/off", e.name)
		}
		if off2 := fmt.Sprintf("%v/%v", offStats, onStats); offStats != onStats {
			t.Errorf("%s: stats differ between metrics on/off: %s", e.name, off2)
		}
		if len(c.Rounds()) == 0 {
			t.Errorf("%s: enabled run recorded nothing", e.name)
		}
	}
}

// TestMetricsDisabledZeroAdditionalAllocations pins the zero-cost contract:
// with Metrics nil (and no process default installed), an engine run
// allocates exactly as much as a run with the zero RunConfig — the
// instrumentation adds nothing — and the nil-collector hooks themselves are
// allocation-free (see obs's own tests for the per-hook assertion).
func TestMetricsDisabledZeroAdditionalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool retention; allocation counts are not reproducible")
	}
	obs.SetDefault(nil)
	g := graph.Cycle(32)
	run := func(cfg RunConfig) {
		if _, _, err := RunSequentialConfig(g, &GatherProtocol{Radius: 2, Decide: gatherDecide}, nil, cfg); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(10, func() { run(RunConfig{}) })
	withNil := testing.AllocsPerRun(10, func() { run(RunConfig{Metrics: nil}) })
	if base != withNil {
		t.Errorf("nil Metrics changed allocations: base %.1f vs %.1f", base, withNil)
	}
	// The ball engine's disabled path likewise.
	ballBase := testing.AllocsPerRun(10, func() {
		if _, _, err := TryRunBallConfig(g, nil, 2, gatherDecide, RunConfig{Workers: -1}); err != nil {
			t.Fatal(err)
		}
	})
	ballNil := testing.AllocsPerRun(10, func() {
		if _, _, err := TryRunBallConfig(g, nil, 2, gatherDecide, RunConfig{Workers: -1, Metrics: nil}); err != nil {
			t.Fatal(err)
		}
	})
	if ballBase != ballNil {
		t.Errorf("ball: nil Metrics changed allocations: %.1f vs %.1f", ballBase, ballNil)
	}
}

// TestMetricsDefaultCollectorFallback: engines report into the process-wide
// collector when RunConfig.Metrics is nil, mirroring SetDefaultWorkers.
func TestMetricsDefaultCollectorFallback(t *testing.T) {
	c := &obs.Collector{}
	obs.SetDefault(c)
	defer obs.SetDefault(nil)
	g := graph.Cycle(20)
	if _, _, err := RunSequentialConfig(g, &GatherProtocol{Radius: 1, Decide: gatherDecide}, nil, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	if len(c.Rounds()) == 0 {
		t.Fatal("default collector saw no rounds")
	}
	// An explicit collector wins over the default.
	explicit := &obs.Collector{}
	if _, _, err := RunSequentialConfig(g, &GatherProtocol{Radius: 1, Decide: gatherDecide}, nil, RunConfig{Metrics: explicit}); err != nil {
		t.Fatal(err)
	}
	if len(explicit.Rounds()) == 0 {
		t.Fatal("explicit collector saw no rounds")
	}
}

// TestMetricsFaultEvents: injected damage and crash activations surface as
// events, identically across engines.
func TestMetricsFaultEvents(t *testing.T) {
	g := graph.Cycle(24)
	advice := make(Advice, g.N())
	for v := range advice {
		advice[v] = bitstrOnes(4)
	}
	plan := &fault.Plan{Seed: 7, FlipRate: 0.5, CrashNode: 3, CrashRound: 2}
	totals := func(c *obs.Collector) (flipped, crashes int64) {
		for _, e := range c.Events() {
			switch e.Kind {
			case "fault.flipped_bits":
				flipped += e.Value
			case "fault.crash":
				crashes += e.Value
			}
		}
		return
	}
	var wantFlipped int64 = -1
	for _, engine := range []string{"scheduler", "sequential"} {
		c := &obs.Collector{}
		cfg := RunConfig{Fault: plan, Metrics: c}
		var err error
		switch engine {
		case "scheduler":
			_, _, err = RunMessageConfig(g, &GatherProtocol{Radius: 2, Decide: gatherDecide}, advice, cfg)
		case "sequential":
			_, _, err = RunSequentialConfig(g, &GatherProtocol{Radius: 2, Decide: gatherDecide}, advice, cfg)
		}
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		flipped, crashes := totals(c)
		if flipped == 0 {
			t.Errorf("%s: no fault.flipped_bits event", engine)
		}
		if crashes != 1 {
			t.Errorf("%s: fault.crash total = %d, want 1", engine, crashes)
		}
		if wantFlipped == -1 {
			wantFlipped = flipped
		} else if flipped != wantFlipped {
			t.Errorf("%s: flipped %d bits, other engines flipped %d", engine, flipped, wantFlipped)
		}
	}
}

// bitstrOnes builds an all-ones advice string of the given length.
func bitstrOnes(n int) bitstr.String {
	bits := make([]int, n)
	for i := range bits {
		bits[i] = 1
	}
	return bitstr.New(bits...)
}
