package orient

import (
	"math/rand"
	"sort"
	"testing"

	"localadvice/internal/graph"
)

// sortPartnerAt is the sorting definition of the pairing that partnerAt
// computes by a rank scan: sort v's incident edges by the neighbor's ID and
// pair positions 2i and 2i+1; the last edge of an odd degree is unpaired.
func sortPartnerAt(g *graph.Graph, v, e int) int {
	inc := append([]int(nil), g.IncidentEdges(v)...)
	sort.Slice(inc, func(a, b int) bool {
		return g.ID(g.Other(inc[a], v)) < g.ID(g.Other(inc[b], v))
	})
	for i, f := range inc {
		if f != e {
			continue
		}
		if j := i ^ 1; j < len(inc) {
			return inc[j]
		}
		return -1
	}
	return -1
}

// TestPartnerAtMatchesSortedPairing checks the rank scan against the
// sorting definition on every (node, incident edge) pair, under the
// generators' IDs, an order-preserving remap and random ID permutations.
func TestPartnerAtMatchesSortedPairing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	odd, err := graph.RandomRegular(30, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]func() *graph.Graph{
		"grid7x9":   func() *graph.Graph { return graph.Grid2D(7, 9) },
		"torus6x6":  func() *graph.Graph { return graph.Torus2D(6, 6) },
		"cycle31":   func() *graph.Graph { return graph.Cycle(31) },
		"path12":    func() *graph.Graph { return graph.Path(12) },
		"star7":     func() *graph.Graph { return graph.Star(7) },
		"gnp60":     func() *graph.Graph { return graph.RandomGNP(60, 0.12, rand.New(rand.NewSource(3))) },
		"gnp40":     func() *graph.Graph { return graph.RandomGNP(40, 0.3, rand.New(rand.NewSource(4))) },
		"5regular":  func() *graph.Graph { return odd.Clone() },
		"cyclepow3": func() *graph.Graph { return graph.CyclePowers(25, 3) },
	}
	relabel := map[string]func(*graph.Graph){
		"generator": func(*graph.Graph) {},
		"remap":     func(g *graph.Graph) { graph.RemapIDsOrderPreserving(g, rng) },
		"permute1":  func(g *graph.Graph) { graph.AssignPermutedIDs(g, rng) },
		"permute2":  func(g *graph.Graph) { graph.AssignSpreadIDs(g, rng) },
	}
	oddSeen := false
	for name, mk := range shapes {
		for how, ids := range relabel {
			g := mk()
			ids(g)
			for v := 0; v < g.N(); v++ {
				oddSeen = oddSeen || g.Degree(v)%2 == 1
				for _, e := range g.IncidentEdges(v) {
					if got, want := partnerAt(g, v, e), sortPartnerAt(g, v, e); got != want {
						t.Fatalf("%s/%s: partnerAt(node %d, edge %d) = %d, sorted pairing gives %d", name, how, v, e, got, want)
					}
				}
			}
		}
	}
	if !oddSeen {
		t.Fatal("no odd-degree node exercised the unpaired edge")
	}
}
