package graph

import (
	"slices"
	"testing"
)

func patchBase(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(nil)
	a := b.Dict().Intern("A")
	c := b.Dict().Intern("C")
	v0 := b.AddVertexLabel(a)
	v1 := b.AddVertexLabel(a)
	v2 := b.AddVertexLabel(c)
	b.AddEdge(v0, v1)
	b.AddEdge(v1, v2)
	return b.Build()
}

func TestPatchAddRemove(t *testing.T) {
	g := patchBase(t)
	a := g.Dict().Lookup("A")

	got, err := Patch(g,
		[]Label{a}, // v3
		[]Edge{{From: 3, To: 0}, {From: 2, To: 2}}, // new vertex wired in + self loop
		[]Edge{{From: 0, To: 1}},
	)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if got.NumVertices() != 4 {
		t.Fatalf("|V| = %d, want 4", got.NumVertices())
	}
	if got.HasEdge(0, 1) {
		t.Fatal("removed edge survived")
	}
	if !got.HasEdge(3, 0) || !got.HasEdge(2, 2) || !got.HasEdge(1, 2) {
		t.Fatal("expected edges missing")
	}
	if got.Label(3) != a {
		t.Fatalf("new vertex label = %d, want %d", got.Label(3), a)
	}
	if got.Dict() != g.Dict() {
		t.Fatal("patched graph must share the dictionary")
	}
	// Original untouched (immutability).
	if g.NumVertices() != 3 || !g.HasEdge(0, 1) {
		t.Fatal("Patch mutated its input")
	}
}

func TestPatchLenientSemantics(t *testing.T) {
	g := patchBase(t)

	// Duplicate adds, adding an existing edge, removing an absent edge, and
	// add∩remove all collapse without error — WAL replay must never fail on
	// a record that was valid when appended.
	got, err := Patch(g, nil,
		[]Edge{{From: 0, To: 1}, {From: 2, To: 0}, {From: 2, To: 0}, {From: 0, To: 2}},
		[]Edge{{From: 2, To: 1}, {From: 0, To: 2}},
	)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if !got.HasEdge(2, 0) || got.HasEdge(0, 2) {
		t.Fatal("lenient semantics broken")
	}
	if got.NumEdges() != 3 { // (0,1), (1,2), (2,0)
		t.Fatalf("|E| = %d, want 3", got.NumEdges())
	}
}

func TestPatchRejectsOutOfRange(t *testing.T) {
	g := patchBase(t)
	if _, err := Patch(g, nil, []Edge{{From: 0, To: 9}}, nil); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := Patch(g, []Label{Label(uint32(g.Dict().Len()) + 1)}, nil, nil); err == nil {
		t.Fatal("unknown label accepted")
	}
	if _, err := Patch(g, []Label{NoLabel}, nil, nil); err == nil {
		t.Fatal("NoLabel accepted")
	}
	// One new vertex makes ID 3 valid.
	if _, err := Patch(g, []Label{g.Dict().Lookup("A")}, []Edge{{From: 3, To: 3}}, nil); err != nil {
		t.Fatalf("edge to freshly added vertex rejected: %v", err)
	}
}

func TestPatchMatchesRebuild(t *testing.T) {
	g := patchBase(t)
	a := g.Dict().Lookup("A")
	got, err := Patch(g, []Label{a}, []Edge{{From: 3, To: 2}}, []Edge{{From: 1, To: 2}})
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	want := FromEdges(g.Dict(),
		[]Label{g.Label(0), g.Label(1), g.Label(2), a},
		[]Edge{{From: 0, To: 1}, {From: 3, To: 2}})
	if got.Digest() != want.Digest() {
		t.Fatalf("Patch digest %016x != rebuilt digest %016x", got.Digest(), want.Digest())
	}
}

// patchReference is the Builder-based Patch the splice replaced: rebuild
// the whole graph from g's edges minus the removed ones plus the added
// ones. It is the oracle of FuzzPatch.
func patchReference(g *Graph, addVerts []Label, addEdges, removeEdges []Edge) *Graph {
	b := NewBuilder(g.Dict())
	for _, l := range g.Labels() {
		b.AddVertexLabel(l)
	}
	for _, l := range addVerts {
		b.AddVertexLabel(l)
	}
	rm := make(map[Edge]bool, len(removeEdges))
	for _, e := range removeEdges {
		rm[e] = true
	}
	for _, e := range append(g.Edges(), addEdges...) {
		if !rm[e] {
			b.AddEdge(e.From, e.To)
		}
	}
	return b.Build()
}

// sameGraph fails t unless a and b have the same dictionary, labels, out-
// and in-rows and posting lists.
func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.Dict() != b.Dict() || a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape: %v vs %v", a, b)
	}
	for v := V(0); int(v) < a.NumVertices(); v++ {
		if a.Label(v) != b.Label(v) || !slices.Equal(a.Out(v), b.Out(v)) || !slices.Equal(a.In(v), b.In(v)) {
			t.Fatalf("vertex %d: label %d/%d out %v/%v in %v/%v",
				v, a.Label(v), b.Label(v), a.Out(v), b.Out(v), a.In(v), b.In(v))
		}
	}
	if !slices.Equal(a.DistinctLabels(), b.DistinctLabels()) {
		t.Fatalf("distinct labels %v vs %v", a.DistinctLabels(), b.DistinctLabels())
	}
	for _, l := range a.DistinctLabels() {
		if !slices.Equal(a.VerticesWithLabel(l), b.VerticesWithLabel(l)) {
			t.Fatalf("posting of %d: %v vs %v", l, a.VerticesWithLabel(l), b.VerticesWithLabel(l))
		}
	}
}

// FuzzPatch requires the row-splice Patch to equal patchReference on
// arbitrary small graphs and batches, lenient cases included: duplicate
// adds, adds of present edges, removes of absent or out-of-range edges,
// and edges both added and removed. The input graph must come out
// untouched, and so must a graph patched from it earlier, whatever is
// patched from either afterwards.
//
// Input bytes: base vertex count, base labels, base edge count, base
// edges, appended vertex count, appended labels, then (kind, from, to)
// triples: an even kind adds the edge, an odd one removes it.
func FuzzPatch(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 3, 0, 1, 1, 2, 2, 3, 1, 1, 0, 4, 0, 1, 2, 1, 0, 1, 0, 0, 2})
	f.Add([]byte{3, 0, 0, 0, 2, 0, 1, 1, 2, 0, 0, 0, 1, 0, 0, 1, 1, 1, 2, 2, 2, 0, 2, 0})
	f.Add([]byte{2, 1, 1, 1, 0, 1, 3, 2, 0, 0, 2, 0, 3, 3, 1, 3, 3, 1, 0, 9, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			x := int(data[0])
			data = data[1:]
			return x
		}
		b := NewBuilder(nil)
		for _, name := range []string{"A", "B", "C", "D"} {
			b.Dict().Intern(name)
		}
		n0 := 1 + next()%32
		for range n0 {
			b.AddVertexLabel(Label(1 + next()%3)) // "D" stays absent
		}
		for m := next() % 64; m > 0; m-- {
			b.AddEdge(V(next()%n0), V(next()%n0))
		}
		g := b.Build()
		gCopy := FromEdges(g.Dict(), slices.Clone(g.Labels()), g.Edges())

		var addVerts []Label
		for k := next() % 4; k > 0; k-- {
			addVerts = append(addVerts, Label(1+next()%4))
		}
		n := n0 + len(addVerts)
		var adds, removes []Edge
		for len(data) >= 3 {
			kind := next()
			if kind%2 == 0 {
				adds = append(adds, Edge{V(next() % n), V(next() % n)})
			} else {
				removes = append(removes, Edge{V(next() % (n + 2)), V(next() % (n + 2))})
			}
		}

		got, err := Patch(g, addVerts, adds, removes)
		if err != nil {
			t.Fatalf("Patch: %v", err)
		}
		want := patchReference(g, addVerts, adds, removes)
		sameGraph(t, got, want)
		// A sibling patch of g, its new vertices shifted by one ID, must
		// not write into the first result's postings.
		if _, err := Patch(g, append([]Label{1}, addVerts...), nil, nil); err != nil {
			t.Fatalf("sibling Patch: %v", err)
		}
		// Patch the result once more, removing what was added: a graph
		// sharing rows or postings with its parent must not leak the
		// second batch into the first, nor the first into the input.
		again, err := Patch(got, addVerts, nil, adds)
		if err != nil {
			t.Fatalf("second Patch: %v", err)
		}
		sameGraph(t, again, patchReference(got, addVerts, nil, adds))
		sameGraph(t, got, want)
		sameGraph(t, g, gCopy)
	})
}

// TestSameLabelSet covers the label-set comparison the server uses to
// keep its text index across a swap: an edge-only patch shares the label
// slice; appending a vertex with a present label keeps the set; one with
// an absent label changes it.
func TestSameLabelSet(t *testing.T) {
	g := patchBase(t)
	a, c := g.Dict().Lookup("A"), g.Dict().Lookup("C")
	d := g.Dict().Intern("D")
	for _, tc := range []struct {
		name  string
		verts []Label
		same  bool
	}{
		{"edge only", nil, true},
		{"present label", []Label{a, c}, true},
		{"new label", []Label{d}, false},
	} {
		p, err := Patch(g, tc.verts, []Edge{{From: 2, To: 0}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.SameLabelSet(p); got != tc.same || p.SameLabelSet(g) != tc.same {
			t.Errorf("%s: SameLabelSet = %v, want %v", tc.name, got, tc.same)
		}
	}
}

// TestFromRowsRejectsDisorder pins FromRows' contract: out-rows must be
// ascending and distinct and name vertices of the graph.
func TestFromRowsRejectsDisorder(t *testing.T) {
	dict := NewDict()
	a := dict.Intern("A")
	labels := []Label{a, a, a}
	for name, adj := range map[string][]V{"descending": {2, 1}, "duplicate": {1, 1}, "out of range": {1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FromRows accepted row %v", name, adj)
				}
			}()
			FromRows(dict, labels, []uint32{0, 2, 2, 2}, adj)
		}()
	}
	g := FromRows(dict, labels, []uint32{0, 2, 2, 2}, []V{1, 2})
	if !slices.Equal(g.In(2), []V{0}) || !slices.Equal(g.VerticesWithLabel(a), []V{0, 1, 2}) {
		t.Fatalf("In(2) = %v, postings %v", g.In(2), g.VerticesWithLabel(a))
	}
}
