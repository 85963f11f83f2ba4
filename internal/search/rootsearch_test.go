package search_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bigindex/internal/graph"
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
