package orient

import (
	"fmt"
	"math/rand"
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// TestEncodeVarDetValidAndSeedFree pins the deterministic shift placement
// on the sparse families where the symmetric LLL condition holds: the
// conditional-expectations advice is identical across runs and decodes to
// a verified balanced
// orientation — while the seeded Moser–Tardos placement on the same graphs
// stays valid but seed-dependent in general.
func TestEncodeVarDetValidAndSeedFree(t *testing.T) {
	s := Schema{P: DefaultParams()}
	families := map[string]*graph.Graph{
		"cycle96":  graph.Cycle(96),
		"path90":   graph.Path(90),
		"cyclepow": graph.CyclePowers(64, 2),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			graph.AssignPermutedIDs(g, rand.New(rand.NewSource(12)))
			det, err := s.EncodeVarDet(g)
			if err != nil {
				t.Fatal(err)
			}
			again, err := s.EncodeVarDet(g)
			if err != nil {
				t.Fatal(err)
			}
			fp := fmt.Sprint(det.Dense(g.N()))
			if fmt.Sprint(again.Dense(g.N())) != fp {
				t.Fatal("EncodeVarDet is not deterministic")
			}
			sol, _, err := s.DecodeVarOn("ball", g, det, local.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := lcl.Verify(lcl.BalancedOrientation{}, g, sol); err != nil {
				t.Fatal(err)
			}
			mt, err := s.EncodeVarLLL(g, rand.New(rand.NewSource(9)), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			mtSol, _, err := s.DecodeVarOn("ball", g, mt, local.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := lcl.Verify(lcl.BalancedOrientation{}, g, mtSol); err != nil {
				t.Fatal(err)
			}
		})
	}
}
