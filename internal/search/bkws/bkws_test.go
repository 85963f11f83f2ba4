package bkws

import (
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

// forwardDists is the reference bounded forward BFS: hop distances from
// src along out-edges within limit hops.
func forwardDists(g *graph.Graph, src graph.V, limit int) map[graph.V]int {
	dist := map[graph.V]int{src: 0}
	queue := []graph.V{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] == limit {
			continue
		}
		for _, w := range g.Out(v) {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// bruteForce checks every vertex as a root with a bounded forward BFS.
func bruteForce(g *graph.Graph, q []graph.Label, dmax int) map[string]float64 {
	out := map[string]float64{}
	for v := 0; v < g.NumVertices(); v++ {
		dist := forwardDists(g, graph.V(v), dmax)
		dists := make([]int, len(q))
		sum, ok := 0, true
		for i, l := range q {
			dists[i] = -1
			for w, d := range dist {
				if g.Label(w) == l && (dists[i] < 0 || d < dists[i]) {
					dists[i] = d
				}
			}
			if dists[i] < 0 {
				ok = false
				break
			}
			sum += dists[i]
		}
		if !ok {
			continue
		}
		m := search.Match{Root: graph.V(v), Dists: dists, Score: float64(sum)}
		out[m.Key()] = m.Score
	}
	return out
}

func matchKeys(ms []search.Match) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.Key()] = m.Score
	}
	return out
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	algo := New(3)
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(4*n), 2+rng.Intn(3))
		nq := 1 + rng.Intn(3)
		q := make([]graph.Label, nq)
		for i := range q {
			q[i] = graph.Label(1 + rng.Intn(g.Dict().Len()))
		}
		prep, err := algo.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := prep.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(g, q, 3)
		gm := matchKeys(got)
		if len(gm) != len(want) {
			t.Fatalf("trial %d: %d matches, brute force %d\nq=%v\nedges=%v", trial, len(gm), len(want), q, g.Edges())
		}
		for k, s := range want {
			if gs, ok := gm[k]; !ok || gs != s {
				t.Fatalf("trial %d: key %s got %v want %v", trial, k, gs, s)
			}
		}
	}
}

func TestTopKIsPrefixOfFullRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	algo := New(4)
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(5*n), 3)
		q := []graph.Label{1, 2}
		prep, _ := algo.Prepare(g)
		all, _ := prep.Search(q, 0)
		for _, k := range []int{1, 2, 5} {
			topk, _ := prep.Search(q, k)
			if len(topk) > k {
				t.Fatalf("top-%d returned %d answers", k, len(topk))
			}
			if len(all) >= k && len(topk) != min(k, len(all)) {
				t.Fatalf("top-%d returned %d of %d", k, len(topk), len(all))
			}
			// Scores must agree with the full ranking prefix (roots can
			// differ under ties; scores cannot).
			for i := range topk {
				if topk[i].Score != all[i].Score {
					t.Fatalf("top-%d score[%d] = %v, full ranking has %v", k, i, topk[i].Score, all[i].Score)
				}
			}
		}
	}
}

func TestNoOccurrenceMeansNoAnswers(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 10, 20, 2)
	missing := g.Dict().Intern("never-used")
	prep, _ := New(3).Prepare(g)
	ms, err := prep.Search([]graph.Label{1, missing}, 0)
	if err != nil || ms != nil {
		t.Fatalf("want nil matches, got %v err %v", ms, err)
	}
}

func TestEmptyQueryErrors(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 5, 5, 2)
	prep, _ := New(3).Prepare(g)
	if _, err := prep.Search(nil, 0); err == nil {
		t.Fatal("empty query should error")
	}
}

func TestDuplicateKeywords(t *testing.T) {
	// A query repeating a keyword must still work: both positions match the
	// same posting list.
	b := graph.NewBuilder(nil)
	x := b.AddVertex("x")
	y := b.AddVertex("y")
	b.AddEdge(y, x)
	g := b.Build()
	prep, _ := New(2).Prepare(g)
	ms, err := prep.Search([]graph.Label{g.Label(x), g.Label(x)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 { // roots x (0+0) and y (1+1)
		t.Fatalf("matches = %v", ms)
	}
}

func TestGenerationAgreesWithSearch(t *testing.T) {
	// RootedGeneration fed every vertex as a root candidate must reproduce
	// the direct search exactly, in all four optimization modes.
	rng := rand.New(rand.NewSource(13))
	algo := New(3)
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(20)
		g := randomGraph(rng, n, rng.Intn(4*n), 3)
		q := []graph.Label{1, 2}
		prep, _ := algo.Prepare(g)
		direct, _ := prep.Search(q, 0)
		want := matchKeys(direct)

		allRoots := make([]graph.V, n)
		for i := range allRoots {
			allRoots[i] = graph.V(i)
		}
		for _, opt := range []search.GenOptions{
			{},
			{SpecOrder: true},
			{PathBased: true},
			{SpecOrder: true, PathBased: true},
		} {
			gen := algo.NewGeneration(g, q, opt)
			got := matchKeys(gen.Generate(allRoots, nil))
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
