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
// row, each row is sorted and deduplicated in place, and the in-rows are
// filled by scanning the out-rows in vertex order, so they come out
// ascending without a sort.
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

	// In-rows: count targets, then scan the out-rows in vertex order.
	inOff := make([]uint32, n+1)
	for _, w := range outAdj {
		inOff[w+1]++
	}
	for v := range n {
		inOff[v+1] += inOff[v]
	}
	inAdj := make([]V, m)
	copy(next, inOff[:n])
	for v := range n {
		for _, w := range outAdj[outOff[v]:outOff[v+1]] {
			inAdj[next[w]] = V(v)
			next[w]++
		}
	}

	posting := make(map[Label][]V)
	for v, l := range labels {
		posting[l] = append(posting[l], V(v))
	}
	return &Graph{
		dict:    b.dict,
		labels:  labels,
		outOff:  outOff,
		outAdj:  outAdj,
		inOff:   inOff,
		inAdj:   inAdj,
		posting: posting,
	}
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
	n := g.NumVertices()
	labels := make([]Label, n)
	posting := make(map[Label][]V)
	for v := 0; v < n; v++ {
		l := f(g.labels[v])
		labels[v] = l
		posting[l] = append(posting[l], V(v))
	}
	return &Graph{
		dict:    g.dict,
		labels:  labels,
		outOff:  g.outOff,
		outAdj:  g.outAdj,
		inOff:   g.inOff,
		inAdj:   g.inAdj,
		posting: posting,
	}
}
