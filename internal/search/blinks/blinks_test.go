package blinks

import (
	"math/rand"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/search"
	"bigindex/internal/search/bkws"
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

// TestAgreesWithBkws: Blinks implements the same distinct-root semantics as
// bkws, so exhaustive answer sets must be identical.
func TestAgreesWithBkws(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := bkws.New(3)
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(4*n), 2+rng.Intn(3))
		nq := 1 + rng.Intn(3)
		q := make([]graph.Label, nq)
		for i := range q {
			q[i] = graph.Label(1 + rng.Intn(g.Dict().Len()))
		}
		bp, err := base.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := bp.Search(q, 0)

		p, err := New(Options{DMax: 3}).Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		gm, wm := matchKeys(got), matchKeys(want)
		if len(gm) != len(wm) {
			t.Fatalf("trial %d: %d matches, bkws %d\nq=%v edges=%v",
				trial, len(gm), len(wm), q, g.Edges())
		}
		for k, s := range wm {
			if gs, ok := gm[k]; !ok || gs != s {
				t.Fatalf("trial %d: key %s got %v want %v", trial, k, gs, s)
			}
		}
	}
}

// TestTopKIsExhaustivePrefix: Search(q, k) must return exactly the first k
// answers of the exhaustive ranking, keys in order, not just equal scores.
// A tie at the k-th score is where a non-strict stopping bound goes wrong.
func TestTopKIsExhaustivePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(5*n), 2+rng.Intn(3))
		q := make([]graph.Label, 1+rng.Intn(3))
		for i := range q {
			q[i] = graph.Label(1 + rng.Intn(g.Dict().Len()))
		}
		p, err := New(Options{DMax: 1 + rng.Intn(4)}).Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		all, _ := p.Search(q, 0)
		for _, k := range []int{1, 3, 7} {
			topk, _ := p.Search(q, k)
			want := search.Truncate(all, k)
			if len(topk) != len(want) {
				t.Fatalf("trial %d top-%d returned %d of %d", trial, k, len(topk), len(all))
			}
			for i := range want {
				if topk[i].Key() != want[i].Key() {
					t.Fatalf("trial %d top-%d rank %d: %s (score %v), want %s (score %v)",
						trial, k, i, topk[i].Key(), topk[i].Score, want[i].Key(), want[i].Score)
				}
			}
		}
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := New(Options{DMax: 3}).Prepare(graph.NewBuilder(nil).Build()); err == nil {
		t.Fatal("empty graph should be rejected")
	}
}

func TestMissingKeywordAndEmptyQuery(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 10, 20, 2)
	algo := New(Options{DMax: 3})
	p, _ := algo.Prepare(g)
	if _, err := p.Search(nil, 0); err == nil {
		t.Fatal("empty query should error")
	}
	missing := g.Dict().Intern("nope")
	ms, err := p.Search([]graph.Label{missing}, 0)
	if err != nil || ms != nil {
		t.Fatalf("missing keyword: %v %v", ms, err)
	}
}
