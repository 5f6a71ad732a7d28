package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
	"localadvice/internal/obs"
	"localadvice/internal/server"
)

// detPoint is one (schema, method) comparison cell of the deterministic-LLL
// bench: the LLL instance size, the solver work (resamplings for
// Moser–Tardos, Bad evaluations for both paths), and the seed-independence
// measurement — the number of distinct advice outputs across the swept
// seeds, which the regression gate pins to 1 on the det paths.
type detPoint struct {
	Schema      string  `json:"schema"`
	Graph       string  `json:"graph"`
	N           int     `json:"n"`
	Method      string  `json:"method"`
	Events      int64   `json:"events"`
	Resamplings float64 `json:"resamplings"`
	Evaluations float64 `json:"evaluations"`
	Repairs     float64 `json:"repairs"`
	Distinct    int     `json:"distinct"`
	Bits        int     `json:"bits"`
	Valid       bool    `json:"valid"`
}

// detWarm is the warm-cache contrast for one schema pair: an in-process
// server is driven with /v1/encode requests whose graph spec rotates the
// seed on a seed-free family, once against the det-mode schema (seedless
// advice keys — every request after the first hits) and once against the
// seeded schema (seed-widened keys — every request misses).
type detWarm struct {
	Schema        string  `json:"schema"`
	Requests      int     `json:"requests"`
	DetHits       int     `json:"det_hits"`
	SeededHits    int     `json:"seeded_hits"`
	DetHitRate    float64 `json:"det_hit_rate"`
	SeededHitRate float64 `json:"seeded_hit_rate"`
}

// detlllReport is the machine-readable comparison scripts/bench.sh embeds
// as the "detlll" section and the bench-regression gate enforces.
type detlllReport struct {
	Graph  string     `json:"graph"`
	N      int        `json:"n"`
	Seeds  int        `json:"seeds"`
	Points []detPoint `json:"points"`
	Warm   []detWarm  `json:"warm"`
}

// cmdDetLLL compares the two LLL resolution methods — seeded Moser–Tardos
// (mt) and conditional expectations (det) — on one graph per schema, then
// measures the serving-layer payoff of the det path: warm cache hit rates
// under rotating request seeds for the det-mode vs the seeded schema
// entries.
func cmdDetLLL(args []string) error {
	fs := flag.NewFlagSet("detlll", flag.ContinueOnError)
	kind, n, seed := graphFlags(fs)
	schemasFlag := fs.String("schemas", "orient,color3", "comma-separated deterministic-LLL schemas (orient, color3)")
	seeds := fs.Int("seeds", 5, "number of consecutive seeds to sweep per method")
	mtCap := fs.Int("cap", 1<<20, "Moser-Tardos resampling cap (tiny values surface the typed cap error)")
	noWarm := fs.Bool("no-warm", false, "skip the serving-layer warm-hit measurement")
	jsonOut := fs.Bool("json", false, "emit the comparison as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("detlll: -seeds must be >= 1, got %d", *seeds)
	}
	g, err := makeGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}
	rep := detlllReport{Graph: *kind, N: g.N(), Seeds: *seeds}

	for _, name := range strings.Split(*schemasFlag, ",") {
		name = strings.TrimSpace(name)
		ds, ok := harness.DetSchemaByName(name)
		if !ok {
			return fmt.Errorf("detlll: unknown schema %q (have orient, color3)", name)
		}
		for _, method := range harness.DetMethods() {
			pt := detPoint{Schema: name, Graph: *kind, N: g.N(), Method: string(method)}
			var advice local.Advice
			var sumResamp, sumEvals, sumRepairs int64
			distinct := map[string]bool{}
			for i := 0; i < *seeds; i++ {
				c := &obs.Collector{}
				var a local.Advice
				var err error
				if method == harness.MethodMT {
					a, err = ds.EncodeMTCapped(g, *seed+int64(i), *mtCap, c)
				} else {
					a, err = ds.EncodeWith(method, g, 0, c)
				}
				if err != nil {
					return fmt.Errorf("detlll %s/%s: %w", name, method, err)
				}
				advice = a
				distinct[adviceFingerprint(a)] = true
				pt.Events = obsTotal(c, "lll.events")
				sumResamp += obsTotal(c, "lll.resamplings")
				sumEvals += obsTotal(c, "lll.evaluations")
				sumRepairs += obsTotal(c, "lll.repairs")
			}
			runs := float64(*seeds)
			pt.Resamplings = float64(sumResamp) / runs
			pt.Evaluations = float64(sumEvals) / runs
			pt.Repairs = float64(sumRepairs) / runs
			pt.Distinct = len(distinct)
			pt.Bits = advice.TotalBits()
			sol, _, err := ds.DecodeOn("ball", g, advice, local.RunConfig{})
			if err != nil {
				return fmt.Errorf("detlll %s/%s decode: %w", name, method, err)
			}
			if err := lcl.Verify(ds.Problem(g), g, sol); err != nil {
				return fmt.Errorf("detlll %s/%s verify: %w", name, method, err)
			}
			pt.Valid = true
			rep.Points = append(rep.Points, pt)
		}
		if !*noWarm {
			warm, err := measureDetWarm(name, *kind, *n, *seeds)
			if err != nil {
				return err
			}
			rep.Warm = append(rep.Warm, warm)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("deterministic LLL comparison: graph=%s n=%d, %d seeds per method\n", rep.Graph, rep.N, rep.Seeds)
	for _, pt := range rep.Points {
		fmt.Printf("  %-6s %-10s events=%-4d resamp=%-8.2f evals=%-9.2f repairs=%-5.2f bits=%-5d distinct=%d\n",
			pt.Schema, pt.Method, pt.Events, pt.Resamplings, pt.Evaluations, pt.Repairs, pt.Bits, pt.Distinct)
	}
	for _, w := range rep.Warm {
		fmt.Printf("  %-6s warm hits over %d rotating-seed requests: det %d (%.2f), seeded %d (%.2f)\n",
			w.Schema, w.Requests, w.DetHits, w.DetHitRate, w.SeededHits, w.SeededHitRate)
	}
	return nil
}

// adviceFingerprint renders advice canonically for distinct-output counts.
func adviceFingerprint(a local.Advice) string {
	var sb strings.Builder
	for _, s := range a {
		sb.WriteString(s.String())
		sb.WriteByte('|')
	}
	return sb.String()
}

// obsTotal sums one event kind in a collector.
func obsTotal(c *obs.Collector, kind string) int64 {
	var total int64
	for _, e := range c.Events() {
		if e.Kind == kind {
			total += e.Value
		}
	}
	return total
}

// measureDetWarm drives an in-process server with /v1/encode requests whose
// graph spec rotates the seed, counting cache hits for the det-mode schema
// ("<name>det", seedless advice keys) against the seeded one ("<name>lll").
// On a seed-free family every request resolves to one graph digest, so the
// hit-rate delta isolates the cache-key contract of DESIGN.md decision 12.
func measureDetWarm(name, family string, n, requests int) (detWarm, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return detWarm{}, err
	}
	hits := func(schema string) (int, error) {
		count := 0
		for seed := 1; seed <= requests; seed++ {
			body := fmt.Sprintf(`{"schema":%q,"graph":{"family":%q,"n":%d,"seed":%d}}`, schema, family, n, seed)
			r := httptest.NewRequest("POST", "/v1/encode", strings.NewReader(body))
			r.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				return 0, fmt.Errorf("detlll warm probe: %s encode seed %d: %d %s", schema, seed, w.Code, w.Body.String())
			}
			var resp struct {
				Cached bool `json:"cached"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				return 0, err
			}
			if resp.Cached {
				count++
			}
		}
		return count, nil
	}
	detHits, err := hits(name + "det")
	if err != nil {
		return detWarm{}, err
	}
	seededHits, err := hits(name + "lll")
	if err != nil {
		return detWarm{}, err
	}
	return detWarm{
		Schema: name, Requests: requests,
		DetHits: detHits, SeededHits: seededHits,
		DetHitRate:    float64(detHits) / float64(requests),
		SeededHitRate: float64(seededHits) / float64(requests),
	}, nil
}
