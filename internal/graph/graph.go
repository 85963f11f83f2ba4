// Package graph provides the labeled directed graph substrate used by every
// other package in this repository: the data graph G = (V, E, L, Σ) of the
// paper (Sec. 2), its summary layers, and the answer subgraphs.
//
// Graphs are built once through a Builder and are immutable afterwards;
// adjacency is stored in CSR (compressed sparse row) form in both directions
// so that the keyword search algorithms can traverse forward and backward
// without auxiliary allocation. Per-label posting lists support the
// "vertices containing keyword q" primitive that all three search semantics
// start from.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// V is a vertex identifier, dense in [0, NumVertices).
type V uint32

// Edge is a directed edge (From -> To).
type Edge struct {
	From, To V
}

// Graph is an immutable directed vertex-labeled graph.
type Graph struct {
	dict   *Dict
	labels []Label // labels[v] is L(v)

	// CSR adjacency, forward and backward.
	outOff []uint32
	outAdj []V
	inOff  []uint32
	inAdj  []V

	// posting[l] lists the vertices with label l, ascending.
	posting map[Label][]V

	// branching memoizes Branching on the graph itself, so the value is
	// collected with the graph it describes.
	branchingOnce sync.Once
	branching     float64
}

// NumVertices reports |V|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return len(g.outAdj) }

// Size reports |G| = |V| + |E|, the graph size measure used throughout the
// paper (e.g. in the compression ratio of Formula 3).
func (g *Graph) Size() int { return g.NumVertices() + g.NumEdges() }

// Dict returns the label dictionary shared by this graph.
func (g *Graph) Dict() *Dict { return g.dict }

// Label returns L(v).
func (g *Graph) Label(v V) Label { return g.labels[v] }

// Labels returns the label slice indexed by vertex. The caller must not
// modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Out returns the out-neighbors of v as a shared slice; callers must not
// modify it.
func (g *Graph) Out(v V) []V { return g.outAdj[g.outOff[v]:g.outOff[v+1]] }

// In returns the in-neighbors of v as a shared slice; callers must not
// modify it.
func (g *Graph) In(v V) []V { return g.inAdj[g.inOff[v]:g.inOff[v+1]] }

// OutDegree reports the number of out-edges of v.
func (g *Graph) OutDegree(v V) int { return int(g.outOff[v+1] - g.outOff[v]) }

// InDegree reports the number of in-edges of v.
func (g *Graph) InDegree(v V) int { return int(g.inOff[v+1] - g.inOff[v]) }

// Degree reports the total degree of v. A vertex with Degree > 2 is a
// "joint vertex" in the path-based answer generation of Sec. 4.3.3.
func (g *Graph) Degree(v V) int { return g.OutDegree(v) + g.InDegree(v) }

// Branching estimates the per-hop fan-out of a bounded traversal as
// √E[deg²] over undirected degrees; Formula 4's density correction
// (cost.NewTable) compares it across layers. The second moment matters:
// summarization concentrates edges on hub supernodes (a supernode holding
// 500 collapsed attribute vertices inherits every member's in-edge), and a
// traversal that touches one hub immediately reaches its whole
// neighborhood — an effect invisible to the average degree. Computed once,
// on first use.
func (g *Graph) Branching() float64 {
	g.branchingOnce.Do(func() {
		n := g.NumVertices()
		if n == 0 {
			return
		}
		sum := 0.0
		for v := V(0); int(v) < n; v++ {
			d := float64(g.Degree(v))
			sum += d * d
		}
		g.branching = math.Sqrt(sum / float64(n))
	})
	return g.branching
}

// VerticesWithLabel returns the posting list for l: every vertex v with
// L(v) == l, in ascending order. The returned slice is shared; callers must
// not modify it. Returns nil when no vertex carries l.
func (g *Graph) VerticesWithLabel(l Label) []V { return g.posting[l] }

// LabelCount reports |V_l|, the number of vertices labeled l. Together with
// NumVertices it gives the label support sup(l) = |V_l|/|V| of Sec. 3.2.
func (g *Graph) LabelCount(l Label) int { return len(g.posting[l]) }

// Support returns sup(l) = |V_l| / |V| as defined in Sec. 3.2 (and reused by
// the query cost model, Formula 4).
func (g *Graph) Support(l Label) float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(len(g.posting[l])) / float64(g.NumVertices())
}

// DistinctLabels returns the labels that occur on at least one vertex,
// in ascending Label order.
func (g *Graph) DistinctLabels() []Label {
	ls := make([]Label, 0, len(g.posting))
	for l := range g.posting {
		ls = append(ls, l)
	}
	sortLabels(ls)
	return ls
}

// SameLabelSet reports whether g and h carry the same set of vertex
// labels, without building either set: at once when they share their
// label slice (graph.Patch shares it with an edge-only batch), otherwise
// by looking up each of g's labels in h.
func (g *Graph) SameLabelSet(h *Graph) bool {
	if len(g.posting) != len(h.posting) {
		return false
	}
	if len(g.labels) == len(h.labels) && (len(g.labels) == 0 || &g.labels[0] == &h.labels[0]) {
		return true
	}
	for l := range g.posting {
		if _, ok := h.posting[l]; !ok {
			return false
		}
	}
	return true
}

// Edges returns all edges in (From, To) lexicographic order. It allocates;
// intended for tests and serialization, not inner loops.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for v := V(0); int(v) < g.NumVertices(); v++ {
		for _, w := range g.Out(v) {
			es = append(es, Edge{v, w})
		}
	}
	return es
}

// HasEdge reports whether (u, v) ∈ E using binary search on the CSR row.
func (g *Graph) HasEdge(u, v V) bool {
	row := g.Out(u)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == v
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{|V|=%d |E|=%d |Σ|=%d}", g.NumVertices(), g.NumEdges(), len(g.posting))
}

func sortLabels(ls []Label) { slices.Sort(ls) }
