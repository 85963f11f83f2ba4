package core

import (
	"math/rand"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/search/blinks"
)

// dist is the reference bounded forward BFS: the hop distance from u to v
// within limit hops, or -1.
func dist(g *graph.Graph, u, v graph.V, limit int) int {
	seen := map[graph.V]int{u: 0}
	queue := []graph.V{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == v {
			return seen[x]
		}
		if seen[x] == limit {
			continue
		}
		for _, w := range g.Out(x) {
			if _, ok := seen[w]; !ok {
				seen[w] = seen[x] + 1
				queue = append(queue, w)
			}
		}
	}
	return -1
}

// TestProp51ReachabilityPreserved: reach(u, v, G) implies
// reach(χᵐ(u), χᵐ(v), Gᵐ) for every layer (Prop 5.1).
func TestProp51ReachabilityPreserved(t *testing.T) {
	ds := smallDataset(500)
	idx := buildIndex(t, ds)
	g := idx.Data()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		if dist(g, u, v, 6) < 0 {
			continue
		}
		for m := 1; m < idx.NumLayers(); m++ {
			su := idx.ChiUp(u, 0, m)
			sv := idx.ChiUp(v, 0, m)
			if dist(idx.LayerGraph(m), su, sv, 6) < 0 {
				t.Fatalf("layer %d: reach(%d,%d) in G but not reach(χ%d, χ%d)", m, u, v, su, sv)
			}
		}
	}
}

// TestProp52DistanceNonIncreasing: dist(χᵐu, χᵐv, Gᵐ) <= dist(u, v, G)
// (Prop 5.2).
func TestProp52DistanceNonIncreasing(t *testing.T) {
	ds := smallDataset(501)
	idx := buildIndex(t, ds)
	g := idx.Data()
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for trial := 0; trial < 400 && checked < 120; trial++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		d := dist(g, u, v, 5)
		if d < 0 {
			continue
		}
		checked++
		for m := 1; m < idx.NumLayers(); m++ {
			dm := dist(idx.LayerGraph(m), idx.ChiUp(u, 0, m), idx.ChiUp(v, 0, m), 5)
			if dm < 0 || dm > d {
				t.Fatalf("layer %d: dist %d > data dist %d (u=%d v=%d)", m, dm, d, u, v)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("too few reachable pairs: %d", checked)
	}
}

// TestProp53RankPreservation: for the distance-based score, the ranking of
// generalized answers by their summary scores is consistent with the final
// data-graph scores — summary scores lower-bound final scores, so the
// boosted top-1 final score equals the direct top-1 (Prop 5.3's use).
func TestProp53RankPreservation(t *testing.T) {
	ds := smallDataset(502)
	idx := buildIndex(t, ds)
	rng := rand.New(rand.NewSource(3))
	algo := blinks.New(blinks.Options{DMax: 3})
	ev := NewEvaluator(idx, algo, DefaultEvalOptions())
	for trial := 0; trial < 10; trial++ {
		q := pickQuery(rng, ds, 2, 3)
		if q == nil {
			t.Skip("no frequent labels")
		}
		direct, err := ev.Direct(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct) == 0 {
			continue
		}
		for m := 1; m < idx.NumLayers(); m++ {
			prep, err := algo.Prepare(idx.LayerGraph(m))
			if err != nil {
				t.Fatal(err)
			}
			qm := idx.Configs().GenQuery(q, m)
			gens, err := prep.Search(qm, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(gens) == 0 {
				t.Fatalf("layer %d: no generalized answers but %d direct ones (Lemma 4.1)", m, len(direct))
			}
			// Every direct answer's root must appear generalized, with a
			// summary score that lower-bounds the final score.
			byRoot := map[graph.V]float64{}
			for _, ga := range gens {
				byRoot[ga.Root] = ga.Score
			}
			for _, d := range direct {
				s := idx.ChiUp(d.Root, 0, m)
				gs, ok := byRoot[s]
				if !ok {
					t.Fatalf("layer %d: direct root %d has no generalized answer", m, d.Root)
				}
				if gs > d.Score {
					t.Fatalf("layer %d: generalized score %v exceeds final %v", m, gs, d.Score)
				}
			}
		}
	}
}

// TestSpecializeSetsDistinct: the batch specializations return every data
// vertex under the given supernodes exactly once — the supernode lists may
// repeat, the Down rows of distinct supernodes are disjoint — and the
// keyword form, which label-filters at every layer, keeps exactly those
// with the keyword's label.
func TestSpecializeSetsDistinct(t *testing.T) {
	for seed := int64(503); seed < 506; seed++ {
		ds := smallDataset(seed)
		idx := buildIndex(t, ds)
		g := idx.Data()
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 40; trial++ {
			m := 1 + rng.Intn(idx.NumLayers()-1)
			lm := idx.LayerGraph(m)
			supers := make([]graph.V, 1+rng.Intn(12))
			for i := range supers {
				supers[i] = graph.V(rng.Intn(lm.NumVertices()))
			}
			supers = append(supers, supers[:len(supers)/2]...)
			under := map[graph.V]bool{}
			for _, s := range supers {
				under[s] = true
			}
			kw := g.Label(graph.V(rng.Intn(g.NumVertices())))
			check := func(name string, got []graph.V, want func(graph.V) bool) {
				t.Helper()
				seen := map[graph.V]bool{}
				for _, v := range got {
					if seen[v] {
						t.Fatalf("seed %d layer %d %s: vertex %d twice", seed, m, name, v)
					}
					seen[v] = true
				}
				for v := range g.NumVertices() {
					if w := want(graph.V(v)); w != seen[graph.V(v)] {
						t.Fatalf("seed %d layer %d %s: vertex %d returned %v, want %v", seed, m, name, v, !w, w)
					}
				}
			}
			inSupers := func(v graph.V) bool { return under[idx.ChiUp(v, 0, m)] }
			check("root", idx.specializeRootSet(supers, m, nil, nil, nil), inSupers)
			check("keyword", idx.specializeKeywordSet(supers, m, kw, nil, nil, nil),
				func(v graph.V) bool { return inSupers(v) && g.Label(v) == kw })
		}
	}
}
