package coloring

import (
	"math/rand"
	"testing"

	"localadvice/internal/graph"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// colorAdviceFingerprint renders dense advice canonically for byte-identity
// comparisons.
func colorAdviceFingerprint(a local.Advice) string {
	var sb []byte
	for _, s := range a {
		sb = append(sb, s.String()...)
		sb = append(sb, '|')
	}
	return string(sb)
}

// TestEncodeDetValidAndSeedFree pins the deterministic mark-selection path
// of the Section 7 pipeline on families where the ruling-group machinery
// runs for real (the strip and the chorded cycle have rulers > 0): the
// conditional-expectations advice is identical across runs, and it decodes
// to a verified proper 3-coloring. The IDs are permuted to a labelling where the greedy
// ruling-group placer is feasible (it is ID-order sensitive; see the
// harness e12Graphs comment).
func TestEncodeDetValidAndSeedFree(t *testing.T) {
	tc := ThreeColoring{CoverRadius: 10, GroupSpread: 2}
	families := map[string]*graph.Graph{
		"cycle64":    graph.Cycle(64),
		"tristrip":   graph.TriangularStrip(80),
		"chordcycle": graph.ChordedCycle(120),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			graph.AssignPermutedIDs(g, rand.New(rand.NewSource(1)))
			det, err := tc.EncodeDet(g)
			if err != nil {
				t.Fatal(err)
			}
			fp := colorAdviceFingerprint(det)
			again, err := tc.EncodeDet(g)
			if err != nil {
				t.Fatal(err)
			}
			if colorAdviceFingerprint(again) != fp {
				t.Fatal("EncodeDet is not deterministic")
			}
			sol, _, err := tc.DecodeOn("ball", g, det, local.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := lcl.Verify(lcl.Coloring{K: 3}, g, sol); err != nil {
				t.Fatal(err)
			}
			mt, err := tc.EncodeLLL(g, rand.New(rand.NewSource(9)), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			mtSol, _, err := tc.DecodeOn("ball", g, mt, local.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := lcl.Verify(lcl.Coloring{K: 3}, g, mtSol); err != nil {
				t.Fatal(err)
			}
		})
	}
}
