package blinks

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bigindex/internal/graph"
)

// A pre-cancelled context must stop SearchCtx at its first checkpoint, and
// whatever partial matches come back must be a subset of the exhaustive
// answer set (sound but possibly incomplete).
func TestSearchCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	g := randomGraph(rng, 40, 120, 3)
	p, err := New(Options{DMax: 3}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	q := []graph.Label{1, 2}
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
	fullKeys := matchKeys(full)
	for _, m := range ms {
		if _, ok := fullKeys[m.Key()]; !ok {
			t.Fatalf("partial result %s not in the exhaustive answer set", m.Key())
		}
	}
}

// SearchCtx under a background context is exactly Search.
func TestSearchCtxBackgroundMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	g := randomGraph(rng, 30, 90, 3)
	p, err := New(Options{DMax: 3}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	q := []graph.Label{1, 2}
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
}
