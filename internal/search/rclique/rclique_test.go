package rclique

import (
	"errors"
	"math/rand"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/search"
)

func randomGraph(rng *rand.Rand, n, e, labels int) *graph.Graph {
	b := graph.NewBuilder(nil)
	ls := make([]graph.Label, labels)
	for i := range ls {
		ls[i] = b.Dict().Intern(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		b.AddVertexLabel(ls[rng.Intn(labels)])
	}
	for i := 0; i < e; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	return b.Build()
}

func matchKeys(ms []search.Match) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.Key()] = m.Score
	}
	return out
}

// undirectedDists is the reference bounded BFS over the undirected
// skeleton: hop distances from src within limit hops.
func undirectedDists(g *graph.Graph, src graph.V, limit int) map[graph.V]int {
	dist := map[graph.V]int{src: 0}
	queue := []graph.V{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] == limit {
			continue
		}
		for _, w := range append(append([]graph.V(nil), g.Out(v)...), g.In(v)...) {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// bruteForce enumerates tuples directly with on-the-fly BFS distances.
func bruteForce(g *graph.Graph, q []graph.Label, r int) map[string]float64 {
	sets := make([][]graph.V, len(q))
	for i, l := range q {
		sets[i] = g.VerticesWithLabel(l)
		if len(sets[i]) == 0 {
			return map[string]float64{}
		}
	}
	out := map[string]float64{}
	tuple := make([]graph.V, len(q))
	var rec func(i int)
	rec = func(i int) {
		if i == len(q) {
			score := 0
			for a := 0; a < len(tuple); a++ {
				dm := undirectedDists(g, tuple[a], r)
				for b := a + 1; b < len(tuple); b++ {
					d, ok := dm[tuple[b]]
					if !ok {
						return
					}
					score += d
				}
			}
			m := search.Match{Root: tuple[0], Nodes: append([]graph.V(nil), tuple...), Score: float64(score)}
			out[m.Key()] = m.Score
			return
		}
		for _, v := range sets[i] {
			tuple[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func TestExhaustiveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	algo := New(2)
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(14)
		g := randomGraph(rng, n, rng.Intn(3*n), 2+rng.Intn(2))
		q := []graph.Label{1, 2}
		p, err := algo.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(g, q, 2)
		gm := matchKeys(got)
		if len(gm) != len(want) {
			t.Fatalf("trial %d: %d tuples, brute force %d", trial, len(gm), len(want))
		}
		for k, s := range want {
			if gs, ok := gm[k]; !ok || gs != s {
				t.Fatalf("trial %d: key %s got %v want %v", trial, k, gs, s)
			}
		}
	}
}

// TestTopKFirstAnswerQuality: the center-based procedure is a
// 2-approximation of the best answer weight.
func TestTopKFirstAnswerQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	algo := New(3)
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(14)
		g := randomGraph(rng, n, 2*n, 2)
		q := []graph.Label{1, 2}
		p, _ := algo.Prepare(g)
		exact, _ := p.Search(q, 0)
		approx, _ := p.Search(q, 1)
		if len(exact) == 0 {
			if len(approx) != 0 {
				t.Fatalf("trial %d: approx found %v, exact none", trial, approx)
			}
			continue
		}
		if len(approx) == 0 {
			t.Fatalf("trial %d: exact has %d answers but approx none", trial, len(exact))
		}
		best := exact[0].Score
		if approx[0].Score > 2*best+1e-9 {
			t.Fatalf("trial %d: approx %v > 2×best %v", trial, approx[0].Score, best)
		}
	}
}

func TestTopKCountAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	algo := New(2)
	g := randomGraph(rng, 30, 80, 3)
	p, _ := algo.Prepare(g)
	ms, _ := p.Search([]graph.Label{1, 2}, 5)
	if len(ms) > 5 {
		t.Fatalf("top-5 returned %d", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Score < ms[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
	// All returned tuples are distinct.
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.Key()] {
			t.Fatal("duplicate tuple in top-k")
		}
		seen[m.Key()] = true
	}
}

func TestIndexTooLarge(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(34)), 40, 160, 2)
	algo := NewWithOptions(Options{R: 4, MaxEntries: 10})
	if _, err := algo.Prepare(g); !errors.Is(err, ErrIndexTooLarge) {
		t.Fatalf("want ErrIndexTooLarge, got %v", err)
	}
	if est := algo.EstimateEntries(g, 10); est <= 10 {
		t.Fatalf("estimate %d should exceed the cap", est)
	}
}

func TestGenerationAgreesWithExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	algo := New(2)
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(12)
		g := randomGraph(rng, n, rng.Intn(3*n), 2)
		q := []graph.Label{1, 2}
		p, _ := algo.Prepare(g)
		direct, _ := p.Search(q, 0)
		want := matchKeys(direct)

		cands := make([][]graph.V, len(q))
		for i, l := range q {
			cands[i] = g.VerticesWithLabel(l)
		}
		for _, opt := range []search.GenOptions{
			{},
			{SpecOrder: true},
			{PathBased: true},
			{SpecOrder: true, PathBased: true},
		} {
			gen := algo.NewGeneration(g, q, opt)
			got := matchKeys(gen.Generate(nil, cands))
			if len(got) != len(want) {
				t.Fatalf("trial %d opt %+v: %d generated, want %d", trial, opt, len(got), len(want))
			}
			for k, s := range want {
				if gs, ok := got[k]; !ok || gs != s {
					t.Fatalf("trial %d opt %+v: key %s got %v want %v", trial, opt, k, gs, s)
				}
			}
		}
	}
}

func TestMissingKeyword(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(36)), 10, 20, 2)
	p, _ := New(2).Prepare(g)
	missing := g.Dict().Intern("nothing")
	ms, err := p.Search([]graph.Label{1, missing}, 0)
	if err != nil || len(ms) != 0 {
		t.Fatalf("missing keyword: %v %v", ms, err)
	}
	if _, err := p.Search(nil, 0); err == nil {
		t.Fatal("empty query should error")
	}
}
