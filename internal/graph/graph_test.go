package graph

import (
	"bytes"
	"testing"
)

// buildDiamond returns a small labeled graph:
//
//	a(0) -> b(1), a -> c(2), b -> d(3), c -> d
func buildDiamond(t *testing.T) (*Graph, []V) {
	t.Helper()
	b := NewBuilder(nil)
	a := b.AddVertex("A")
	bb := b.AddVertex("B")
	c := b.AddVertex("C")
	d := b.AddVertex("D")
	b.AddEdge(a, bb)
	b.AddEdge(a, c)
	b.AddEdge(bb, d)
	b.AddEdge(c, d)
	return b.Build(), []V{a, bb, c, d}
}

func TestBuilderBasics(t *testing.T) {
	g, vs := buildDiamond(t)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.Size() != 8 {
		t.Fatalf("Size = %d, want 8", g.Size())
	}
	if got := g.Dict().Name(g.Label(vs[0])); got != "A" {
		t.Fatalf("Label(a) = %q, want A", got)
	}
	if got := g.OutDegree(vs[0]); got != 2 {
		t.Fatalf("OutDegree(a) = %d, want 2", got)
	}
	if got := g.InDegree(vs[3]); got != 2 {
		t.Fatalf("InDegree(d) = %d, want 2", got)
	}
	if g.Degree(vs[1]) != 2 {
		t.Fatalf("Degree(b) = %d, want 2", g.Degree(vs[1]))
	}
}

func TestBuilderDeduplicatesEdges(t *testing.T) {
	b := NewBuilder(nil)
	a := b.AddVertex("A")
	c := b.AddVertex("B")
	b.AddEdge(a, c)
	b.AddEdge(a, c)
	b.AddEdge(a, c)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
}

func TestBuilderPanicsOnBadEdge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on edge to missing vertex")
		}
	}()
	b := NewBuilder(nil)
	v := b.AddVertex("A")
	b.AddEdge(v, v+10)
}

func TestHasEdge(t *testing.T) {
	g, vs := buildDiamond(t)
	if !g.HasEdge(vs[0], vs[1]) {
		t.Error("expected edge a->b")
	}
	if g.HasEdge(vs[1], vs[0]) {
		t.Error("unexpected edge b->a")
	}
	if g.HasEdge(vs[3], vs[3]) {
		t.Error("unexpected self loop d->d")
	}
}

func TestPostingLists(t *testing.T) {
	b := NewBuilder(nil)
	l := b.Dict().Intern("X")
	for i := 0; i < 5; i++ {
		b.AddVertexLabel(l)
	}
	b.AddVertex("Y")
	g := b.Build()
	if got := g.LabelCount(l); got != 5 {
		t.Fatalf("LabelCount(X) = %d, want 5", got)
	}
	if got := g.Support(l); got != 5.0/6.0 {
		t.Fatalf("Support(X) = %v, want 5/6", got)
	}
	if n := len(g.DistinctLabels()); n != 2 {
		t.Fatalf("DistinctLabels = %d, want 2", n)
	}
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct strings interned to same label")
	}
	if d.Intern("alpha") != a {
		t.Fatal("re-interning changed the label")
	}
	if d.Name(a) != "alpha" || d.Name(b) != "beta" {
		t.Fatal("Name round-trip failed")
	}
	if d.Lookup("gamma") != NoLabel {
		t.Fatal("Lookup of unknown string should return NoLabel")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	c := d.Clone()
	c.Intern("gamma")
	if d.Len() != 2 || c.Len() != 3 {
		t.Fatal("Clone is not independent")
	}
}

func TestDictNamePanicsOnForeignLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range label")
		}
	}()
	NewDict().Name(Label(42))
}

func TestRelabelSharesTopology(t *testing.T) {
	g, vs := buildDiamond(t)
	x := g.Dict().Intern("X")
	rg := g.Relabel(func(Label) Label { return x })
	if rg.NumEdges() != g.NumEdges() || rg.NumVertices() != g.NumVertices() {
		t.Fatal("Relabel changed topology")
	}
	for _, v := range vs {
		if rg.Label(v) != x {
			t.Fatalf("vertex %d not relabeled", v)
		}
	}
	if rg.LabelCount(x) != 4 {
		t.Fatal("posting lists not rebuilt")
	}
	// Original untouched.
	if g.Label(vs[0]) == x {
		t.Fatal("Relabel mutated the original graph")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, vs := buildDiamond(t)
	sub, remap := g.InducedSubgraph([]V{vs[0], vs[1], vs[3]})
	if sub.NumVertices() != 3 {
		t.Fatalf("|V| = %d, want 3", sub.NumVertices())
	}
	// Edges a->b and b->d survive; a->c, c->d do not.
	if sub.NumEdges() != 2 {
		t.Fatalf("|E| = %d, want 2", sub.NumEdges())
	}
	if !sub.HasEdge(remap[vs[0]], remap[vs[1]]) {
		t.Fatal("missing induced edge a->b")
	}
	// Duplicated input vertices must not duplicate output.
	sub2, _ := g.InducedSubgraph([]V{vs[0], vs[0], vs[0]})
	if sub2.NumVertices() != 1 {
		t.Fatalf("dedup failed: |V| = %d", sub2.NumVertices())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g, _ := buildDiamond(t)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	rg, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if rg.NumVertices() != g.NumVertices() || rg.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed sizes")
	}
	for v := V(0); int(v) < g.NumVertices(); v++ {
		if g.Dict().Name(g.Label(v)) != rg.Dict().Name(rg.Label(v)) {
			t.Fatalf("label mismatch at %d", v)
		}
	}
	for _, e := range g.Edges() {
		if !rg.HasEdge(e.From, e.To) {
			t.Fatalf("missing edge %v", e)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a graph at all"))); err == nil {
		t.Fatal("expected error for garbage input")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}
