package core

import (
	"math/rand"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/search/bkws"
)

func TestRefreshMatchesRebuild(t *testing.T) {
	ds := smallDataset(300)
	idx := buildIndex(t, ds)
	layersBefore := idx.NumLayers()
	if layersBefore < 2 {
		t.Skip("need summary layers")
	}

	// Evolve the graph: add vertices and edges using the same dictionary.
	b := graph.NewBuilder(ds.Graph.Dict())
	for v := 0; v < ds.Graph.NumVertices(); v++ {
		b.AddVertexLabel(ds.Graph.Label(graph.V(v)))
	}
	for _, e := range ds.Graph.Edges() {
		b.AddEdge(e.From, e.To)
	}
	rng := rand.New(rand.NewSource(5))
	labels := ds.Graph.DistinctLabels()
	for i := 0; i < 30; i++ {
		nv := b.AddVertexLabel(labels[rng.Intn(len(labels))])
		b.AddEdge(nv, graph.V(rng.Intn(ds.Graph.NumVertices())))
	}
	g2 := b.Build()

	idx, err := idx.Refreshed(g2)
	if err != nil {
		t.Fatalf("Refreshed: %v", err)
	}
	if idx.Data() != g2 {
		t.Fatal("Refreshed did not carry the new data graph")
	}

	// The refreshed index must answer queries identically to direct eval on
	// the new graph.
	q := pickQuery(rand.New(rand.NewSource(6)), ds, 2, 3)
	if q == nil {
		t.Skip("no frequent labels")
	}
	ev := NewEvaluator(idx, bkws.New(3), DefaultEvalOptions())
	direct, err := ev.Direct(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	boosted, _, err := ev.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(boosted) {
		t.Fatalf("after Refresh: %d direct vs %d boosted", len(direct), len(boosted))
	}
	dm, bm := matchKeys(direct), matchKeys(boosted)
	for k, s := range dm {
		if bs, ok := bm[k]; !ok || bs != s {
			t.Fatalf("after Refresh: key %s got %v want %v", k, bs, s)
		}
	}
}

// Every successful Refreshed is one epoch past its receiver, and a
// rejected one returns no index — result caches key on the epoch, so this
// is the invalidation contract they depend on.
func TestRefreshBumpsEpoch(t *testing.T) {
	ds := smallDataset(302)
	idx := buildIndex(t, ds)
	if got := idx.Epoch(); got != 0 {
		t.Fatalf("fresh index epoch = %d, want 0", got)
	}
	idx, err := idx.Refreshed(ds.Graph)
	if err != nil {
		t.Fatalf("Refreshed: %v", err)
	}
	if got := idx.Epoch(); got != 1 {
		t.Fatalf("epoch after Refreshed = %d, want 1", got)
	}
	foreign := graph.NewBuilder(nil)
	foreign.AddVertex("x")
	if n, err := idx.Refreshed(foreign.Build()); err == nil || n != nil {
		t.Fatal("foreign dictionary accepted")
	}
	if got := idx.Epoch(); got != 1 {
		t.Fatalf("epoch after rejected Refreshed = %d, want 1", got)
	}
	if idx, err = idx.Refreshed(ds.Graph); err != nil {
		t.Fatalf("second Refreshed: %v", err)
	}
	if got := idx.Epoch(); got != 2 {
		t.Fatalf("epoch after second Refreshed = %d, want 2", got)
	}
}

func TestRefreshRejectsForeignDict(t *testing.T) {
	ds := smallDataset(301)
	idx := buildIndex(t, ds)
	foreign := graph.NewBuilder(nil)
	foreign.AddVertex("x")
	if _, err := idx.Refreshed(foreign.Build()); err == nil {
		t.Fatal("foreign dictionary accepted")
	}
}
