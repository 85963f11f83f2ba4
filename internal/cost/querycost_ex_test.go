package cost

import (
	"math"
	"testing"

	"bigindex/internal/graph"
)

// twoGraphs builds a data graph (4 vertices, 2 edges, degree 0.5) and a
// "summary" half its size but denser (2 vertices, 2 edges, degree 1).
func twoGraphs(t *testing.T) (*graph.Graph, *graph.Graph, []graph.Label) {
	t.Helper()
	dict := graph.NewDict()
	b0 := graph.NewBuilder(dict)
	a := b0.AddVertex("a")
	bb := b0.AddVertex("b")
	c := b0.AddVertex("c")
	d := b0.AddVertex("d")
	b0.AddEdge(a, bb)
	b0.AddEdge(c, d)
	g0 := b0.Build()

	b1 := graph.NewBuilder(dict)
	x := b1.AddVertexLabel(g0.Label(a))
	y := b1.AddVertexLabel(g0.Label(bb))
	b1.AddEdge(x, y)
	b1.AddEdge(y, x)
	g1 := b1.Build()
	return g0, g1, []graph.Label{g0.Label(a)}
}

func TestQueryCostExDegreeCorrection(t *testing.T) {
	g0, g1, q := twoGraphs(t)
	base, _ := queryCostTerms(0, g0, g1, q, q) // pure size ratio: 4/6
	if math.Abs(base-4.0/6.0) > 1e-12 {
		t.Fatalf("exponent 0: %v, want %v", base, 4.0/6.0)
	}
	// Degree growth: d1/d0 = 1 / 0.5 = 2. Exponent 1 doubles the term;
	// exponent 3 multiplies by 8.
	e1, _ := queryCostTerms(1, g0, g1, q, q)
	if math.Abs(e1-2*base) > 1e-12 {
		t.Fatalf("exponent 1: %v, want %v", e1, 2*base)
	}
	e3, _ := queryCostTerms(3, g0, g1, q, q)
	if math.Abs(e3-8*base) > 1e-12 {
		t.Fatalf("exponent 3: %v, want %v", e3, 8*base)
	}
}

func TestOptimalLayerExRespectsCorrection(t *testing.T) {
	g0, g1, q := twoGraphs(t)
	idx := &layered{graphs: []*graph.Graph{g0, g1}, seq: nil}
	// With β=1 the decision is purely the first term. Support ratio for
	// layer 1: label a appears once in both graphs (1/2 vs 1/4) but β=1
	// zeroes that out.
	best0, _ := OptimalLayerEx(idx, q, 1, 0)
	if best0 != 1 {
		t.Fatalf("exponent 0 should prefer the smaller layer, got %d", best0)
	}
	best3, _ := OptimalLayerEx(idx, q, 1, 3)
	if best3 != 0 {
		t.Fatalf("exponent 3 should veto the dense layer, got %d", best3)
	}
}

func TestTableArgmin(t *testing.T) {
	tab := Table{
		{Compress: 1.0, Sup: 1.0, Legal: true},
		{Compress: 0.5, Sup: 0.8, Legal: true},
		{Compress: 0.3, Sup: 2.0, Legal: true},
	}
	// Under a=1, b=0 (all weight on compression) layer 2 wins; under a=0,
	// b=1 (all weight on support) layer 1 wins.
	if got := tab.Argmin(1, 0); got != 2 {
		t.Fatalf("compress-only cheapest = %d, want 2", got)
	}
	if got := tab.Argmin(0, 1); got != 1 {
		t.Fatalf("support-only cheapest = %d, want 1", got)
	}
	// Ties go to the lowest layer: a=b=0 costs every layer 0.
	if got := tab.Argmin(0, 0); got != 0 {
		t.Fatalf("all-tied cheapest = %d, want 0", got)
	}
	// Illegal layers are never chosen.
	tab[1].Legal = false
	if got := tab.Argmin(0, 1); got != 0 {
		t.Fatalf("with layer 1 illegal, cheapest = %d, want 0", got)
	}
	// At (β, 1−β) Argmin is the legal layer of least Cost.
	if got := tab.Argmin(0.9, 0.1); got != 2 || tab.Cost(2, 0.9) >= tab.Cost(0, 0.9) {
		t.Fatalf("β=0.9 cheapest = %d, want 2 (costs %v / %v)", got, tab.Cost(0, 0.9), tab.Cost(2, 0.9))
	}
}
