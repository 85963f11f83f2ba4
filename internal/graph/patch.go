package graph

import "fmt"

// Patch returns a new graph equal to g with addVerts appended (in order,
// receiving IDs NumVertices()..NumVertices()+len(addVerts)-1), addEdges
// inserted, and removeEdges deleted. The dictionary is shared with g.
//
// Patch is the pure structural mutation used by both the live mutation
// service and WAL boot replay, so its semantics are deliberately lenient:
//
//   - duplicate added edges, and edges already present, collapse (simple
//     graph — Builder dedupes);
//   - removing an absent edge is a no-op;
//   - an edge both added and removed in the same patch ends up removed.
//
// Replaying a WAL record through Patch therefore cannot fail for benign
// reasons; strict request validation (dup detection, remove-must-exist)
// is the admission layer's job. Patch only rejects what it cannot
// represent: labels outside g's dictionary and edge endpoints outside the
// patched vertex range.
func Patch(g *Graph, addVerts []Label, addEdges, removeEdges []Edge) (*Graph, error) {
	dict := g.Dict()
	for i, l := range addVerts {
		if int(l) <= 0 || int(l) > dict.Len() {
			return nil, fmt.Errorf("graph: patch vertex %d: label %d not in dictionary (size %d)", i, l, dict.Len())
		}
	}
	n := V(g.NumVertices() + len(addVerts))
	for _, e := range addEdges {
		if e.From >= n || e.To >= n {
			return nil, fmt.Errorf("graph: patch edge (%d,%d) references vertex >= %d", e.From, e.To, n)
		}
	}

	b := NewBuilder(dict)
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertexLabel(g.Label(V(v)))
	}
	for _, l := range addVerts {
		b.AddVertexLabel(l)
	}
	rm := make(map[Edge]bool, len(removeEdges))
	for _, e := range removeEdges {
		rm[e] = true
	}
	for _, e := range g.Edges() {
		if !rm[e] {
			b.AddEdge(e.From, e.To)
		}
	}
	for _, e := range addEdges {
		if !rm[e] {
			b.AddEdge(e.From, e.To)
		}
	}
	return b.Build(), nil
}
