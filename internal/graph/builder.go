package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// Vertex IDs are assigned densely in insertion order. Duplicate edges are
// deduplicated at Build time (the paper's graphs are simple graphs).
type Builder struct {
	dict   *Dict
	labels []Label
	edges  []Edge
}

// NewBuilder returns a Builder using dict for label interning. Pass nil to
// create a fresh dictionary.
func NewBuilder(dict *Dict) *Builder {
	if dict == nil {
		dict = NewDict()
	}
	return &Builder{dict: dict}
}

// Dict returns the builder's label dictionary.
func (b *Builder) Dict() *Dict { return b.dict }

// AddVertex adds a vertex labeled name and returns its ID.
func (b *Builder) AddVertex(name string) V {
	return b.AddVertexLabel(b.dict.Intern(name))
}

// AddVertexLabel adds a vertex with an already-interned label.
func (b *Builder) AddVertexLabel(l Label) V {
	v := V(len(b.labels))
	b.labels = append(b.labels, l)
	return v
}

// Grow reserves room for n more edges, so a caller that knows the
// count up front adds them without reallocating.
func (b *Builder) Grow(n int) { b.edges = slices.Grow(b.edges, n) }

// NumVertices reports the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.labels) }

// AddEdge records the directed edge (from, to). Both endpoints must already
// exist; AddEdge panics otherwise since that is always a construction bug.
func (b *Builder) AddEdge(from, to V) {
	n := V(len(b.labels))
	if from >= n || to >= n {
		panic(fmt.Sprintf("graph: edge (%d,%d) references vertex >= %d", from, to, n))
	}
	b.edges = append(b.edges, Edge{from, to})
}

// Build freezes the builder into an immutable Graph. The builder may be
// reused afterwards, but further additions do not affect the built graph.
//
// Build runs in time linear in the graph plus the cost of sorting each
// vertex's own out-row: a counting sort by source places every edge in its
// row, each row is sorted and deduplicated in place, and FromRows derives
// the rest.
func (b *Builder) Build() *Graph {
	n := len(b.labels)
	labels := append([]Label(nil), b.labels...)

	// Counting sort by source into the out-rows.
	outOff := make([]uint32, n+1)
	for _, e := range b.edges {
		outOff[e.From+1]++
	}
	for v := range n {
		outOff[v+1] += outOff[v]
	}
	outAdj := make([]V, len(b.edges))
	next := make([]uint32, n)
	copy(next, outOff[:n])
	for _, e := range b.edges {
		outAdj[next[e.From]] = e.To
		next[e.From]++
	}

	// Sort and deduplicate each row, compacting rows leftwards in place.
	m := uint32(0)
	for v := range n {
		row := outAdj[outOff[v]:outOff[v+1]]
		slices.Sort(row)
		row = slices.Compact(row)
		outOff[v] = m
		m += uint32(copy(outAdj[m:], row))
	}
	outOff[n] = m
	if int(m) < len(outAdj) {
		outAdj = slices.Clone(outAdj[:m])
	}

	return FromRows(b.dict, labels, outOff, outAdj)
}

// FromRows returns the graph with the given vertex labels and out-rows:
// vertex v's successors are outAdj[outOff[v]:outOff[v+1]], ascending and
// distinct. It adopts the three slices, which the caller must not modify
// afterwards, and derives the rest: the in-rows, filled by scanning the
// out-rows in vertex order so they come out ascending without a sort, and
// the posting lists. It panics on a row that is out of order or names a
// vertex outside the graph, since that is always a construction bug.
func FromRows(dict *Dict, labels []Label, outOff []uint32, outAdj []V) *Graph {
	n := len(labels)
	if len(outOff) != n+1 || int(outOff[n]) != len(outAdj) {
		panic(fmt.Sprintf("graph: row offsets do not cover %d vertices and %d edges", n, len(outAdj)))
	}
	// In-rows: count targets into inOff[w+1], turn the counts into row
	// starts, advance each start past its row while scattering, and shift
	// the resulting row ends back into starts.
	inOff := make([]uint32, n+1)
	for _, w := range outAdj {
		if int(w) >= n {
			panic(fmt.Sprintf("graph: edge to vertex %d >= %d", w, n))
		}
		inOff[w+1]++
	}
	for v := range n {
		inOff[v+1] += inOff[v]
	}
	inAdj := make([]V, len(outAdj))
	for v := range n {
		next := V(0) // the least vertex the row may name next
		for _, w := range outAdj[outOff[v]:outOff[v+1]] {
			if w < next {
				panic(fmt.Sprintf("graph: out-row of %d is not ascending and distinct", v))
			}
			next = w + 1
			inAdj[inOff[w]] = V(v)
			inOff[w]++
		}
	}
	copy(inOff[1:], inOff[:n])
	inOff[0] = 0

	return &Graph{
		dict:    dict,
		labels:  labels,
		outOff:  outOff,
		outAdj:  outAdj,
		inOff:   inOff,
		inAdj:   inAdj,
		posting: postingLists(labels),
	}
}

// postingLists groups the vertices by label, each list ascending. The
// lists are carved out of one flat allocation by a counting sort rather
// than grown per label; capped subslices keep them from aliasing on
// append.
func postingLists(labels []Label) map[Label][]V {
	top := Label(0)
	for _, l := range labels {
		top = max(top, l)
	}
	counts := make([]uint32, int(top)+1)
	for _, l := range labels {
		counts[l]++
	}
	distinct := 0
	for _, c := range counts {
		if c > 0 {
			distinct++
		}
	}
	flat := make([]V, len(labels))
	posting := make(map[Label][]V, distinct)
	var start uint32
	for l, c := range counts {
		if c == 0 {
			continue
		}
		end := start + c
		posting[Label(l)] = flat[start:end:end]
		counts[l] = start // reuse as this label's write cursor
		start = end
	}
	for v, l := range labels {
		flat[counts[l]] = V(v)
		counts[l]++
	}
	return posting
}

// FromEdges builds a graph directly from per-vertex labels and an edge list.
// It is a convenience for tests and generators.
func FromEdges(dict *Dict, labels []Label, edges []Edge) *Graph {
	b := NewBuilder(dict)
	for _, l := range labels {
		b.AddVertexLabel(l)
	}
	for _, e := range edges {
		b.AddEdge(e.From, e.To)
	}
	return b.Build()
}

// Relabel returns a copy of g whose vertex labels have been replaced by
// mapped[v] = f(g.Label(v)). The adjacency structure is shared-by-copy
// (CSR slices are duplicated); the dictionary is shared. Relabel is the
// structural core of the generalization operator Gen (Sec. 3.1): Gen only
// rewrites labels and leaves topology untouched.
func (g *Graph) Relabel(f func(Label) Label) *Graph {
	labels := make([]Label, g.NumVertices())
	for v, l := range g.labels {
		labels[v] = f(l)
	}
	return &Graph{
		dict:    g.dict,
		labels:  labels,
		outOff:  g.outOff,
		outAdj:  g.outAdj,
		inOff:   g.inOff,
		inAdj:   g.inAdj,
		posting: postingLists(labels),
	}
}
