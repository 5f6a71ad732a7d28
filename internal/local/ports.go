package local

import "localadvice/internal/graph"

// portTable is the CSR port layout shared by every message engine: node v's
// ports occupy the contiguous slot range [off[v], off[v+1]) of a flat
// per-port slab, and sendSlot[off[v]+i] is the slot — in the *receiver's*
// range — where a message sent by v on port i is delivered. Port order is
// the graph's adjacency order, so all engines agree on wiring.
//
// Construction is O(n+m): instead of scanning each neighbor's adjacency list
// to locate the reverse port (the historical O(Σ deg(v)·deg(w)) pass), the
// table records, per undirected edge, the port index at each endpoint in one
// sweep over the incident-edge lists and then resolves every directed slot
// with two array lookups.
type portTable struct {
	off      []int32 // len n+1; off[v+1]-off[v] == deg(v)
	sendSlot []int32 // len 2m; destination slot per directed port
}

// newPortTable builds the port layout of g.
func newPortTable(g *graph.Graph) portTable {
	n := g.N()
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(g.Degree(v))
	}
	// portAtU[e] / portAtV[e]: the port index of edge e in the adjacency
	// list of its U / V endpoint.
	m := g.M()
	portAtU := make([]int32, m)
	portAtV := make([]int32, m)
	for v := 0; v < n; v++ {
		for i, e := range g.IncidentEdges(v) {
			if g.Edge(e).U == v {
				portAtU[e] = int32(i)
			} else {
				portAtV[e] = int32(i)
			}
		}
	}
	sendSlot := make([]int32, off[n])
	for v := 0; v < n; v++ {
		adj := g.Neighbors(v)
		inc := g.IncidentEdges(v)
		base := off[v]
		for i, w := range adj {
			e := inc[i]
			j := portAtV[e]
			if g.Edge(e).U == w {
				j = portAtU[e]
			}
			sendSlot[base+int32(i)] = off[w] + j
		}
	}
	return portTable{off: off, sendSlot: sendSlot}
}

// slots returns the total number of directed ports (2m).
func (p portTable) slots() int { return int(p.off[len(p.off)-1]) }

// reversePort returns, for node v's port i, the port index on the receiving
// neighbor's side — the j such that v is the j-th neighbor of Neighbors(v)[i]
// along the shared edge. Used by the sequential engine to address inboxes.
func (p portTable) reversePort(g *graph.Graph, v, i int) int {
	w := g.Neighbors(v)[i]
	return int(p.sendSlot[p.off[v]+int32(i)] - p.off[w])
}
