package lll

import (
	"errors"
	"fmt"
	"testing"
)

// fuzzInstance decodes an arbitrary byte string into a small CNF-style
// Instance: the first two bytes pick the variable count (1..12) and clause
// count (0..16); each clause then consumes up to 3 (var, sign) byte pairs.
// A clause is Bad when every chosen literal is falsified. Everything is a
// pure function of data, so a crashing input replays exactly.
func fuzzInstance(data []byte) *Instance {
	nVars := 1
	nClauses := 0
	if len(data) > 0 {
		nVars = 1 + int(data[0])%12
	}
	if len(data) > 1 {
		nClauses = int(data[1]) % 16
	}
	type clause struct {
		vars []int
		neg  []bool
	}
	clauses := make([]clause, 0, nClauses)
	pos := 2
	for c := 0; c < nClauses; c++ {
		var cl clause
		for l := 0; l < 3 && pos+1 < len(data); l++ {
			cl.vars = append(cl.vars, int(data[pos])%nVars)
			cl.neg = append(cl.neg, data[pos+1]%2 == 1)
			pos += 2
		}
		if len(cl.vars) == 0 {
			break
		}
		clauses = append(clauses, cl)
	}
	return &Instance{
		NumVars:    nVars,
		DomainSize: func(int) int { return 2 },
		NumEvents:  len(clauses),
		Vars:       func(e int) []int { return clauses[e].vars },
		Bad: func(e int, a []int) bool {
			cl := clauses[e]
			for i, v := range cl.vars {
				val := a[v] == 1
				if cl.neg[i] {
					val = !val
				}
				if val {
					return false
				}
			}
			return true
		},
	}
}

// FuzzSolveDeterministic is the deterministic pipeline's crash wall: for
// every generated instance, SolveDeterministic either returns an assignment
// under which the naive full recheck finds no violated event, or fails with
// one of the typed errors (ErrEstimatorBudget, ErrRepairStall). It must
// never panic and never return an untyped error on a validated instance.
func FuzzSolveDeterministic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 0, 1, 1, 2, 0})
	f.Add([]byte{11, 15, 0, 1, 1, 0, 2, 1, 3, 0, 4, 1, 5, 0, 6, 1, 7, 0, 8, 1, 9, 0, 10, 1, 0, 0, 1, 1, 2, 0, 3, 1, 4, 0})
	// Same variable demanded both ways by single-literal clauses: the CE
	// walk cannot satisfy both, so repair must stall with the typed error.
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 1, 0, 1})
	f.Add([]byte{12, 16, 0, 0, 11, 1, 5, 0, 5, 1, 3, 0, 7, 1, 2, 0, 9, 1, 4, 0, 6, 1, 8, 0, 10, 1, 1, 0, 0, 1, 11, 0})
	f.Add([]byte{4, 3, 0, 1, 1, 0, 2, 1, 3, 0, 0, 0, 1, 1, 2, 0, 3, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInstance(data)
		res, err := SolveDeterministic(in)
		if err != nil {
			if !errors.Is(err, ErrEstimatorBudget) && !errors.Is(err, ErrRepairStall) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(res.Assignment) != in.NumVars {
			t.Fatalf("assignment length %d, want %d", len(res.Assignment), in.NumVars)
		}
		for v, x := range res.Assignment {
			if x < 0 || x >= in.DomainSize(v) {
				t.Fatalf("var %d out of domain: %d", v, x)
			}
		}
		for e := 0; e < in.NumEvents; e++ {
			if in.Bad(e, res.Assignment) {
				t.Fatalf("event %d violated", e)
			}
		}
		if res.Resamplings != 0 {
			t.Fatalf("deterministic path reported %d resamplings", res.Resamplings)
		}
		// Determinism: a second run must reproduce the assignment.
		again, err := SolveDeterministic(in)
		if err != nil {
			t.Fatalf("rerun failed: %v", err)
		}
		if fmt.Sprint(again.Assignment) != fmt.Sprint(res.Assignment) {
			t.Fatalf("rerun diverged")
		}
	})
}
