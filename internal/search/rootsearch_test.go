package search_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
	"bigindex/internal/search/bidir"
	"bigindex/internal/search/bkws"
	"bigindex/internal/search/blinks"
)

// TestRootedSearchCtx, for each rooted search: a pre-cancelled context
// stops SearchCtx at its first checkpoint, and whatever partial matches
// come back are a subset of the exhaustive answer set (sound but possibly
// incomplete); under a background context SearchCtx is exactly Search.
func TestRootedSearchCtx(t *testing.T) {
	for _, c := range []struct {
		algo               search.Algorithm
		cancelSeed, bgSeed int64
	}{
		{bkws.New(3), 71, 72},
		{bidir.New(3), 73, 74},
		{blinks.New(blinks.Options{DMax: 3}), 75, 76},
	} {
		q := []graph.Label{1, 2}
		t.Run(c.algo.Name()+"/cancelled", func(t *testing.T) {
			g := search.RandomGraph(rand.New(rand.NewSource(c.cancelSeed)), 40, 120, 3)
			p, err := c.algo.Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			full, err := p.Search(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ms, err := p.SearchCtx(ctx, q, 0)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			fullKeys := map[string]bool{}
			for _, m := range full {
				fullKeys[m.Key()] = true
			}
			for _, m := range ms {
				if !fullKeys[m.Key()] {
					t.Fatalf("partial result %s not in the exhaustive answer set", m.Key())
				}
			}
		})
		t.Run(c.algo.Name()+"/background", func(t *testing.T) {
			g := search.RandomGraph(rand.New(rand.NewSource(c.bgSeed)), 30, 90, 3)
			p, err := c.algo.Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Search(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.SearchCtx(context.Background(), q, 0)
			if err != nil {
				t.Fatalf("background SearchCtx errored: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("SearchCtx found %d matches, Search found %d", len(got), len(want))
			}
		})
	}
}

// TestRootedStopsWithoutCandidates: bkws and Blinks end once the balls of
// the keywords they have finished leave no candidate root, long before a
// keyword on most vertices is expanded. Query {a, b, c} at d_max 2; a and
// b label one vertex each, c labels nc vertices. disjoint: vertex 2 is the
// only in-neighbour of a and 3 of b, so their balls do not meet and there
// is no answer. joined: r reaches a, b and a c vertex in one hop, and the
// y vertices each reach another c vertex, so r is the one answer and it is
// found at c's first level, before the y vertices are expanded.
func TestRootedStopsWithoutCandidates(t *testing.T) {
	const nc, ny, dmax = 20, 20, 2
	build := func(joined bool) (*graph.Graph, []graph.Label) {
		b := graph.NewBuilder(nil)
		a, bv := b.AddVertex("a"), b.AddVertex("b")
		c, cs := b.Dict().Intern("c"), make([]graph.V, nc)
		for i := range cs {
			cs[i] = b.AddVertexLabel(c)
		}
		if joined {
			r := b.AddVertex("r")
			b.AddEdge(r, a)
			b.AddEdge(r, bv)
			b.AddEdge(r, cs[0])
			for i := 0; i < ny; i++ {
				b.AddEdge(b.AddVertex("y"), cs[1+i%(nc-1)])
			}
		} else {
			b.AddEdge(cs[0], a)
			b.AddEdge(cs[1], bv)
		}
		g := b.Build()
		return g, []graph.Label{g.Label(a), g.Label(bv), c}
	}
	for _, joined := range []bool{false, true} {
		g, q := build(joined)
		want := referenceAnswers(g, q, dmax, 0)
		if (len(want) == 1) != joined {
			t.Fatalf("joined %v: reference has %d answers", joined, len(want))
		}
		s := search.GetScratch(g.NumVertices(), 0)
		ball := len(s.Ball(g, g.VerticesWithLabel(q[2]), dmax, search.In))
		search.PutScratch(s)
		for _, a := range []search.Algorithm{bkws.New(dmax), blinks.New(blinks.Options{DMax: dmax})} {
			p, err := a.Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1} {
				led := obs.NewLedger()
				got, err := p.SearchCtx(obs.ContextWithLedger(context.Background(), led), q, k)
				if err == nil {
					err = sameAnswers(got, want)
				}
				if err != nil {
					t.Fatalf("%s joined %v k %d: %v", a.Name(), joined, k, err)
				}
				if exp := led.Snapshot().Expanded; exp >= int64(ball) {
					t.Errorf("%s joined %v k %d: expanded %d vertices, c's ball alone has %d", a.Name(), joined, k, exp, ball)
				}
			}
		}
	}
}
