package graph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
)

// Patch returns a new graph equal to g with addVerts appended (in order,
// receiving IDs NumVertices()..NumVertices()+len(addVerts)-1), addEdges
// inserted, and removeEdges deleted. The dictionary is shared with g.
//
// Patch is the pure structural mutation used by both the live mutation
// service and WAL boot replay, so its semantics are deliberately lenient:
//
//   - duplicate added edges, and edges already present, collapse (simple
//     graph);
//   - removing an absent edge is a no-op;
//   - an edge both added and removed in the same patch ends up removed.
//
// Replaying a WAL record through Patch therefore cannot fail for benign
// reasons; strict request validation (dup detection, remove-must-exist)
// is the admission layer's job. Patch only rejects what it cannot
// represent: labels outside g's dictionary and edge endpoints outside the
// patched vertex range.
//
// The cost is a splice, not a rebuild: the rows of untouched vertices are
// copied in bulk, only the out-rows of edge sources and the in-rows of
// edge targets are rewritten, and when no vertex is added the labels and
// posting lists are shared with g (both graphs are immutable).
func Patch(g *Graph, addVerts []Label, addEdges, removeEdges []Edge) (*Graph, error) {
	dict := g.Dict()
	for i, l := range addVerts {
		if int(l) <= 0 || int(l) > dict.Len() {
			return nil, fmt.Errorf("graph: patch vertex %d: label %d not in dictionary (size %d)", i, l, dict.Len())
		}
	}
	n0 := g.NumVertices()
	n := n0 + len(addVerts)
	for _, e := range addEdges {
		if int(e.From) >= n || int(e.To) >= n {
			return nil, fmt.Errorf("graph: patch edge (%d,%d) references vertex >= %d", e.From, e.To, n)
		}
	}

	// Net change: adds that are new and not also removed, removes that hit
	// an existing edge. Both lists are sorted and distinct.
	present := func(e Edge) bool { return int(e.From) < n0 && int(e.To) < n0 && g.HasEdge(e.From, e.To) }
	rm := sortedEdges(removeEdges)
	var add, del []Edge
	for _, e := range sortedEdges(addEdges) {
		if _, hit := slices.BinarySearchFunc(rm, e, compareEdges); !hit && !present(e) {
			add = append(add, e)
		}
	}
	for _, e := range rm {
		if present(e) {
			del = append(del, e)
		}
	}

	p := &Graph{dict: dict, labels: g.labels, posting: g.posting}
	p.outOff, p.outAdj = splice(g.outOff, g.outAdj, n, add, del)
	p.inOff, p.inAdj = splice(g.inOff, g.inAdj, n, transposed(add), transposed(del))
	if len(addVerts) > 0 {
		p.labels = append(slices.Clip(g.labels), addVerts...)
		// New IDs exceed every old one, so appending keeps each list
		// ascending; Clip makes the first append copy the shared list.
		p.posting = maps.Clone(g.posting)
		for i, l := range addVerts {
			p.posting[l] = append(slices.Clip(p.posting[l]), V(n0+i))
		}
	}
	return p, nil
}

func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// sortedEdges returns a sorted, duplicate-free copy of es.
func sortedEdges(es []Edge) []Edge {
	out := slices.Clone(es)
	slices.SortFunc(out, compareEdges)
	return slices.Compact(out)
}

// transposed returns es reversed edge by edge, sorted.
func transposed(es []Edge) []Edge {
	out := make([]Edge, len(es))
	for i, e := range es {
		out[i] = Edge{From: e.To, To: e.From}
	}
	slices.SortFunc(out, compareEdges)
	return out
}

// splice returns the n-row CSR (off, adj) with the sorted entries add
// inserted and the sorted entries del deleted, where an Edge is (row,
// entry). Rows past the old end start empty. Every del entry must be
// present and no add entry may be.
func splice(off []uint32, adj []V, n int, add, del []Edge) ([]uint32, []V) {
	nOff := make([]uint32, n+1)
	nAdj := make([]V, 0, len(adj)+len(add)-len(del))
	v := 0
	for len(add) > 0 || len(del) > 0 {
		u := n
		if len(add) > 0 {
			u = int(add[0].From)
		}
		if len(del) > 0 {
			u = min(u, int(del[0].From))
		}
		nAdj = copyRows(nOff, nAdj, off, adj, v, u)
		var a, d []Edge
		a, add = cutRow(add, V(u))
		d, del = cutRow(del, V(u))
		nOff[u] = uint32(len(nAdj))
		var row []V
		if u < len(off)-1 {
			row = adj[off[u]:off[u+1]]
		}
		for _, w := range row {
			for len(a) > 0 && a[0].To < w {
				nAdj, a = append(nAdj, a[0].To), a[1:]
			}
			if len(d) > 0 && d[0].To == w {
				d = d[1:]
				continue
			}
			nAdj = append(nAdj, w)
		}
		for _, e := range a {
			nAdj = append(nAdj, e.To)
		}
		v = u + 1
	}
	nAdj = copyRows(nOff, nAdj, off, adj, v, n)
	nOff[n] = uint32(len(nAdj))
	return nOff, nAdj
}

// copyRows appends the old rows [from, to) to nAdj in one copy and sets
// their new offsets; rows past the old end are empty.
func copyRows(nOff []uint32, nAdj []V, off []uint32, adj []V, from, to int) []V {
	hi := min(to, len(off)-1)
	if from < hi {
		shift := uint32(len(nAdj)) - off[from] // modular: off[x]+shift is exact
		for x := from; x < hi; x++ {
			nOff[x] = off[x] + shift
		}
		nAdj = append(nAdj, adj[off[from]:off[hi]]...)
	}
	for x := max(from, hi); x < to; x++ {
		nOff[x] = uint32(len(nAdj))
	}
	return nAdj
}

// cutRow splits the leading entries of row u off the sorted es.
func cutRow(es []Edge, u V) (row, rest []Edge) {
	i := 0
	for i < len(es) && es[i].From == u {
		i++
	}
	return es[:i], es[i:]
}
