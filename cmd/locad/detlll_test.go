package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"localadvice/internal/lll"
)

// TestDetLLLCapErrorSurfaces pins the typed-cap surface end to end: a tiny
// -cap forces the Moser–Tardos sweep past its resampling budget, and the
// command must return an error that still errors.Is/As-matches
// lll.ErrResamplingCap through the CLI wrapping — main prints it as a
// single clean line, never a stack trace.
func TestDetLLLCapErrorSurfaces(t *testing.T) {
	err := run([]string{"detlll", "-graph", "cycle", "-n", "1024", "-seeds", "1", "-cap", "1", "-no-warm", "-schemas", "orient"})
	if err == nil {
		t.Fatal("cap 1 sweep succeeded")
	}
	if !errors.Is(err, lll.ErrResamplingCap) {
		t.Fatalf("err = %v, want wrap of lll.ErrResamplingCap", err)
	}
	var capErr *lll.ResamplingCapError
	if !errors.As(err, &capErr) {
		t.Fatalf("errors.As failed for %v", err)
	}
	if capErr.Resamplings != 1 {
		t.Errorf("Resamplings = %d, want 1", capErr.Resamplings)
	}
	msg := err.Error()
	if strings.Contains(msg, "\n") {
		t.Errorf("cap error is not a single line: %q", msg)
	}
	if strings.Contains(msg, "goroutine") {
		t.Errorf("cap error looks like a stack trace: %q", msg)
	}
}

// TestDetLLLJSONShape pins the machine-readable report scripts/bench.sh
// embeds: every (schema, method) point present, det paths at zero
// resamplings with exactly one distinct output, and the warm section
// showing the det hit rate strictly above the seeded one.
func TestDetLLLJSONShape(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := run([]string{"detlll", "-graph", "cycle", "-n", "96", "-seeds", "3", "-json"})
	os.Stdout = orig
	w.Close()
	var rep struct {
		Seeds  int `json:"seeds"`
		Points []struct {
			Schema      string  `json:"schema"`
			Method      string  `json:"method"`
			Resamplings float64 `json:"resamplings"`
			Distinct    int     `json:"distinct"`
			Valid       bool    `json:"valid"`
		} `json:"points"`
		Warm []struct {
			Schema        string  `json:"schema"`
			DetHitRate    float64 `json:"det_hit_rate"`
			SeededHitRate float64 `json:"seeded_hit_rate"`
		} `json:"warm"`
	}
	decErr := json.NewDecoder(r).Decode(&rep)
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if decErr != nil {
		t.Fatal(decErr)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("%d points, want 2 schemas x 2 methods", len(rep.Points))
	}
	for _, pt := range rep.Points {
		if !pt.Valid {
			t.Errorf("%s/%s decoded invalid", pt.Schema, pt.Method)
		}
		if pt.Method != "mt" {
			if pt.Resamplings != 0 {
				t.Errorf("%s/%s: %v resamplings on a deterministic path", pt.Schema, pt.Method, pt.Resamplings)
			}
			if pt.Distinct != 1 {
				t.Errorf("%s/%s: %d distinct outputs across seeds", pt.Schema, pt.Method, pt.Distinct)
			}
		}
	}
	if len(rep.Warm) != 2 {
		t.Fatalf("%d warm rows, want 2", len(rep.Warm))
	}
	for _, wr := range rep.Warm {
		if wr.DetHitRate <= wr.SeededHitRate {
			t.Errorf("%s: det hit rate %.2f not above seeded %.2f", wr.Schema, wr.DetHitRate, wr.SeededHitRate)
		}
	}
}
