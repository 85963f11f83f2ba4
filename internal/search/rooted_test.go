package search

import (
	"math/rand"
	"slices"
	"testing"

	"bigindex/internal/graph"
)

// The rooted generation engine is exercised heavily through the bkws,
// blinks, and core packages; this test pins its contract directly: exact
// distances, deterministic witnesses, dedup, top-k capping, and the
// per-keyword adaptive map switch.
func TestRootedGenerationDirect(t *testing.T) {
	// r1 -> a -> b ; r2 -> b ; c isolated with label A.
	bld := graph.NewBuilder(nil)
	r1 := bld.AddVertex("root")
	r2 := bld.AddVertexLabel(bld.Dict().Lookup("root"))
	a := bld.AddVertex("A")
	bb := bld.AddVertex("B")
	c := bld.AddVertexLabel(bld.Dict().Lookup("A"))
	bld.AddEdge(r1, a)
	bld.AddEdge(a, bb)
	bld.AddEdge(r2, bb)
	g := bld.Build()
	q := []graph.Label{g.Label(a), g.Label(bb)}

	for _, opt := range []GenOptions{
		{},
		{SpecOrder: true},
		{PathBased: true},
		{SpecOrder: true, PathBased: true},
	} {
		rg := NewRootedGeneration(g, q, 3, nil, opt)
		ms := rg.Generate([]graph.V{r1, r2, r1 /* dup */, c}, nil)
		// r1 reaches A(1) and B(2); r2 reaches B(1) but not A; a reaches
		// itself? a is not in rootCands. c reaches nothing but itself (A at 0)
		// and not B.
		if len(ms) != 1 {
			t.Fatalf("opt %+v: matches = %+v", opt, ms)
		}
		m := ms[0]
		if m.Root != r1 || m.Dists[0] != 1 || m.Dists[1] != 2 || m.Score != 3 {
			t.Fatalf("opt %+v: match = %+v", opt, m)
		}
		if m.Nodes[0] != a || m.Nodes[1] != bb {
			t.Fatalf("opt %+v: witnesses = %v", opt, m.Nodes)
		}
		// Duplicate root already emitted: generating again yields nothing.
		if again := rg.Generate([]graph.V{r1}, nil); len(again) != 0 {
			t.Fatalf("opt %+v: dedup failed", opt)
		}
	}

	// K caps emissions.
	rg := NewRootedGeneration(g, []graph.Label{g.Label(bb)}, 3, nil, GenOptions{K: 1})
	ms := rg.Generate([]graph.V{r1, r2, a, bb}, nil)
	if len(ms) != 1 {
		t.Fatalf("K=1 emitted %d", len(ms))
	}

	// Custom score function flows through.
	double := func(d []int) float64 { return 2 * SumDistances(d) }
	rg2 := NewRootedGeneration(g, q, 3, double, GenOptions{PathBased: true})
	ms2 := rg2.Generate([]graph.V{r1}, nil)
	if len(ms2) != 1 || ms2[0].Score != 6 {
		t.Fatalf("custom score: %+v", ms2)
	}

	// The adaptive switch: a rare keyword (3 of 120 vertices) and more
	// candidate roots than pathThreshold, so path-based sessions answer it
	// from the shared backward row once the threshold is crossed. Their
	// answers, witnesses included, must equal vertex-at-a-time's; roots
	// arrive in two Generate calls, each filling its own rows.
	rng := rand.New(rand.NewSource(7))
	bld = graph.NewBuilder(nil)
	rare, common := bld.Dict().Intern("rare"), bld.Dict().Intern("common")
	for v := 0; v < 120; v++ {
		l := common
		if v%40 == 7 {
			l = rare
		}
		bld.AddVertexLabel(l)
	}
	for e := 0; e < 200; e++ {
		bld.AddEdge(graph.V(rng.Intn(120)), graph.V(rng.Intn(120)))
	}
	g = bld.Build()
	roots := make([]graph.V, 120)
	for i := range roots {
		roots[i] = graph.V(i)
	}
	for _, q := range [][]graph.Label{{rare}, {common, rare}, {rare, common, rare}} {
		want := NewRootedGeneration(g, q, 3, nil, GenOptions{}).Generate(roots, nil)
		if len(want) < 5 {
			t.Fatalf("q %v: only %d answers", q, len(want))
		}
		for _, opt := range []GenOptions{{PathBased: true}, {PathBased: true, SpecOrder: true}} {
			rg := NewRootedGeneration(g, q, 3, nil, opt)
			got := append(rg.Generate(roots[:60], nil), rg.Generate(roots[60:], nil)...)
			if rg.Stats().PathChecks == 0 {
				t.Fatalf("q %v opt %+v: no path-based checks", q, opt)
			}
			if len(got) != len(want) {
				t.Fatalf("q %v opt %+v: %d answers, want %d", q, opt, len(got), len(want))
			}
			for i := range want {
				if got[i].Key() != want[i].Key() || got[i].Score != want[i].Score || !slices.Equal(got[i].Nodes, want[i].Nodes) {
					t.Fatalf("q %v opt %+v: answer %d = %+v, want %+v", q, opt, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSumDistances(t *testing.T) {
	if SumDistances(nil) != 0 || SumDistances([]int{1, 2, 3}) != 6 {
		t.Fatal("SumDistances wrong")
	}
}
