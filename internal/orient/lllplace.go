package orient

import (
	"fmt"
	"math/rand"
	"sort"

	"localadvice/internal/bitstr"
	"localadvice/internal/core"
	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/lll"
	"localadvice/internal/obs"
)

// This file implements the paper's original mark-placement strategy for the
// Section 5 schema: plan marks at evenly spaced trail positions and then
// SHIFT each mark by a bounded random amount so that no two marks conflict,
// exactly the Lovász-Local-Lemma argument of Lemma 5.1. The shift system is
// expressed once as an lll.Instance (variable i = shift of plan i; arity-1
// "clamp" events for shifts pushed past the trail end, arity-2 conflict
// events for interacting plan pairs) and solved two ways: constructively
// randomized with Moser–Tardos (EncodeVarLLL) and derandomized by
// conditional expectations (EncodeVarDet). The greedy placement in
// schema.go remains the deterministic engineering default; the two LLL
// paths are the faithful-to-the-proof alternatives, compared in tests and
// in the E3/E12 ablations.

// shiftPlan is one planned marked pair: a base trail position plus the
// trail's canonical direction bit.
type shiftPlan struct {
	trail  int
	base   int
	dirBit int
}

// shiftSystem is the compiled Lemma 5.1 shift-placement constraint system.
type shiftSystem struct {
	schema Schema
	dec    *Decomposition
	plans  []shiftPlan
	inst   *lll.Instance
}

// pairAt resolves plan i under shift to its marked pair of trail nodes.
func (sys *shiftSystem) pairAt(i, shift int) (a, b int, ok bool) {
	pl := sys.plans[i]
	t := &sys.dec.Trails[pl.trail]
	p := pl.base + shift
	if p+1 >= len(t.Nodes) {
		return 0, 0, false
	}
	a, b = t.Nodes[p], t.Nodes[p+1]
	return a, b, a != b
}

// buildShiftSystem plans the marks and compiles the shift constraints into
// an lll.Instance. A nil system (no error) means the graph has no long
// trails and needs no marks at all.
func (s Schema) buildShiftSystem(g *graph.Graph) (*shiftSystem, error) {
	if err := s.P.validate(); err != nil {
		return nil, err
	}
	dec := Decompose(g)

	// Plan: for each long trail, base positions every MarkSpacing steps;
	// each mark may shift forward by up to MarkWindow-1 steps.
	var plans []shiftPlan
	for id := range dec.Trails {
		t := &dec.Trails[id]
		if t.Len() <= s.P.shortBound() {
			continue
		}
		dirBit := 0
		if CanonicalDirection(g, t) {
			dirBit = 1
		}
		for base := 0; base+1 < t.Len(); base += s.P.MarkSpacing {
			plans = append(plans, shiftPlan{trail: id, base: base, dirBit: dirBit})
		}
	}
	if len(plans) == 0 {
		return nil, nil
	}
	sys := &shiftSystem{schema: s, dec: dec, plans: plans}

	// Conflicts: two pairs sharing a node, or a node of one pair adjacent
	// to a node of the other (the role-ambiguity rule of schema.go).
	// Precompute which plan pairs can interact at all: their reachable
	// node sets within the shift window must come within distance 1.
	window := s.P.MarkWindow
	reach := make([]map[int]bool, len(plans))
	for i := range plans {
		reach[i] = map[int]bool{}
		for sft := 0; sft < window; sft++ {
			if a, bnode, ok := sys.pairAt(i, sft); ok {
				reach[i][a] = true
				reach[i][bnode] = true
				for _, u := range g.Neighbors(a) {
					reach[i][u] = true
				}
				for _, u := range g.Neighbors(bnode) {
					reach[i][u] = true
				}
			}
		}
	}
	type pairEvent struct{ i, j int }
	var pairs []pairEvent
	for i := range plans {
		for j := i + 1; j < len(plans); j++ {
			touch := false
			for v := range reach[j] {
				if reach[i][v] {
					touch = true
					break
				}
			}
			if touch {
				pairs = append(pairs, pairEvent{i, j})
			}
		}
	}

	conflict := func(i, si, j, sj int) bool {
		ai, bi, oki := sys.pairAt(i, si)
		aj, bj, okj := sys.pairAt(j, sj)
		if !oki || !okj {
			return true // a clamped-out plan is itself a violation
		}
		nodes := map[int]bool{ai: true, bi: true}
		if nodes[aj] || nodes[bj] {
			return true
		}
		for _, v := range []int{aj, bj} {
			for _, u := range g.Neighbors(v) {
				if nodes[u] {
					return true
				}
			}
		}
		return false
	}

	// Events 0..P-1 are the per-plan clamp events (bad iff the shift pushes
	// the pair past the trail end); events P.. are the pairwise conflicts.
	numPlans := len(plans)
	sys.inst = &lll.Instance{
		NumVars:    numPlans,
		DomainSize: func(int) int { return window },
		NumEvents:  numPlans + len(pairs),
		Vars: func(e int) []int {
			if e < numPlans {
				return []int{e}
			}
			ev := pairs[e-numPlans]
			return []int{ev.i, ev.j}
		},
		Bad: func(e int, a []int) bool {
			if e < numPlans {
				_, _, ok := sys.pairAt(e, a[e])
				return !ok
			}
			ev := pairs[e-numPlans]
			return conflict(ev.i, a[ev.i], ev.j, a[ev.j])
		},
	}
	return sys, nil
}

// materialize turns a solved shift assignment into the advice layout of
// Schema.EncodeVar and verifies coverage per trail.
func (sys *shiftSystem) materialize(assignment []int) (core.VarAdvice, error) {
	va := make(core.VarAdvice)
	perTrail := map[int][]int{}
	for i, pl := range sys.plans {
		a, bnode, ok := sys.pairAt(i, assignment[i])
		if !ok {
			return nil, fmt.Errorf("orient: LLL produced a clamped plan")
		}
		va[a] = bitstr.New(1, pl.dirBit)
		va[bnode] = bitstr.New(1, 1-pl.dirBit)
		perTrail[pl.trail] = append(perTrail[pl.trail], pl.base+assignment[i])
	}
	for id, positions := range perTrail {
		sort.Ints(positions)
		if err := sys.schema.checkCoverage(&sys.dec.Trails[id], positions); err != nil {
			return nil, fmt.Errorf("orient: LLL placement, trail %d: %w", id, err)
		}
	}
	return va, nil
}

// EncodeVarLLL computes the same advice layout as Schema.EncodeVar but
// places the marked pairs with Moser–Tardos shifting instead of greedy
// first-fit. rng drives the resampling; maxResamplings caps the work (a
// blown cap surfaces as an error wrapping lll.ErrResamplingCap).
func (s Schema) EncodeVarLLL(g *graph.Graph, rng *rand.Rand, maxResamplings int) (core.VarAdvice, error) {
	return s.EncodeVarLLLObserved(g, rng, maxResamplings, obs.Default())
}

// EncodeVarLLLObserved is EncodeVarLLL reporting solver metrics
// (lll.resamplings, lll.evaluations, …) into an explicit collector.
func (s Schema) EncodeVarLLLObserved(g *graph.Graph, rng *rand.Rand, maxResamplings int, m *obs.Collector) (core.VarAdvice, error) {
	sys, err := s.buildShiftSystem(g)
	if err != nil {
		return nil, err
	}
	if sys == nil {
		return core.VarAdvice{}, nil
	}
	res, err := lll.SolveObserved(sys.inst, rng, maxResamplings, m)
	if err != nil {
		return nil, fmt.Errorf("orient: LLL placement: %w", err)
	}
	return sys.materialize(res.Assignment)
}

// EncodeVarDet is the derandomized EncodeVarLLL: the shifts are fixed by
// the method of conditional expectations (lll.SolveDeterministic), so the
// advice is a pure function of the graph — no RNG, identical across seeds.
func (s Schema) EncodeVarDet(g *graph.Graph) (core.VarAdvice, error) {
	return s.EncodeVarDetObserved(g, obs.Default())
}

// EncodeVarDetObserved is EncodeVarDet with an explicit metrics collector.
func (s Schema) EncodeVarDetObserved(g *graph.Graph, m *obs.Collector) (core.VarAdvice, error) {
	sys, err := s.buildShiftSystem(g)
	if err != nil {
		return nil, err
	}
	if sys == nil {
		return core.VarAdvice{}, nil
	}
	res, err := lll.SolveDeterministicObserved(sys.inst, m)
	if err != nil {
		return nil, fmt.Errorf("orient: deterministic LLL placement: %w", err)
	}
	return sys.materialize(res.Assignment)
}

// EncodeDecodeLLL is a convenience wrapper: LLL placement, then the standard
// decoder, then verification — used by the E3 ablation and tests.
func (s Schema) EncodeDecodeLLL(g *graph.Graph, rng *rand.Rand) (*lcl.Solution, core.VarAdvice, error) {
	va, err := s.EncodeVarLLL(g, rng, 1<<20)
	if err != nil {
		return nil, nil, err
	}
	sol, _, err := s.DecodeVar(g, va, nil)
	if err != nil {
		return nil, va, err
	}
	if err := lcl.Verify(lcl.BalancedOrientation{}, g, sol); err != nil {
		return nil, va, err
	}
	return sol, va, nil
}
