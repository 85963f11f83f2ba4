package bigindex_test

import (
	"bytes"
	"testing"

	"bigindex"
)

// TestPublicAPIEndToEnd drives the library the way a downstream user would:
// taxonomy + graph -> index -> query -> save/load -> query again.
func TestPublicAPIEndToEnd(t *testing.T) {
	dict := bigindex.NewDict()
	ont := bigindex.NewOntology(dict)
	for _, r := range [][2]string{
		{"alice", "Person"}, {"bob", "Person"}, {"carol", "Person"},
		{"acme", "Company"}, {"globex", "Company"},
		{"Person", "Agent"}, {"Company", "Agent"},
	} {
		if err := ont.AddSupertypeNames(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}

	b := bigindex.NewGraphBuilder(dict)
	alice := b.AddVertex("alice")
	bob := b.AddVertex("bob")
	carol := b.AddVertex("carol")
	acme := b.AddVertex("acme")
	globex := b.AddVertex("globex")
	b.AddEdge(alice, acme)
	b.AddEdge(bob, acme)
	b.AddEdge(carol, globex)
	b.AddEdge(acme, globex)
	g := b.Build()

	opt := bigindex.DefaultBuildOptions()
	opt.Search.SampleCount = 20
	idx, err := bigindex.Build(g, ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumLayers() < 2 {
		t.Fatalf("expected summary layers, got %d", idx.NumLayers())
	}

	q := []bigindex.Label{dict.Lookup("alice"), dict.Lookup("globex")}
	for _, algo := range []bigindex.Algorithm{
		bigindex.NewBKWS(3),
		bigindex.NewBlinks(bigindex.BlinksOptions{DMax: 3}),
	} {
		ev := bigindex.NewEvaluator(idx, algo, bigindex.DefaultEvalOptions())
		direct, err := ev.Direct(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		boosted, bd, err := ev.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct) != len(boosted) {
			t.Fatalf("%s: %d direct vs %d boosted", algo.Name(), len(direct), len(boosted))
		}
		if len(boosted) == 0 {
			t.Fatalf("%s: expected at least one answer (alice -> acme -> globex)", algo.Name())
		}
		if bd.Layer < 0 || bd.Layer >= idx.NumLayers() {
			t.Fatalf("%s: bad layer %d", algo.Name(), bd.Layer)
		}
	}

	// r-clique over the same graph.
	rc := bigindex.NewRClique(bigindex.RCliqueOptions{R: 2})
	ev := bigindex.NewEvaluator(idx, rc, bigindex.DefaultEvalOptions())
	direct, err := ev.Direct(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	boosted, _, err := ev.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(boosted) {
		t.Fatalf("rclique: %d direct vs %d boosted", len(direct), len(boosted))
	}

	// Persistence round trip through the facade.
	var buf bytes.Buffer
	if err := bigindex.SaveIndex(idx, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := bigindex.LoadIndex(&buf, ont)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumLayers() != idx.NumLayers() {
		t.Fatal("layers lost in round trip")
	}

	// Bisimulation through the facade: the two Person-sharing-acme vertices
	// are not yet bisimilar (labels differ) until generalized.
	res := bigindex.Bisim(g)
	if res.NumBlocks() != g.NumVertices() {
		t.Fatalf("unique labels should not collapse: %d blocks", res.NumBlocks())
	}
	cfg, err := bigindex.NewConfig([]bigindex.Mapping{
		{From: dict.Lookup("alice"), To: dict.Lookup("Person")},
		{From: dict.Lookup("bob"), To: dict.Lookup("Person")},
	})
	if err != nil {
		t.Fatal(err)
	}
	res2 := bigindex.Bisim(cfg.Apply(g))
	if res2.NumBlocks() != g.NumVertices()-1 {
		t.Fatalf("alice/bob should collapse after generalization: %d blocks", res2.NumBlocks())
	}
}

// TestGeneratedDatasetAPI exercises the data-generation surface.
func TestGeneratedDatasetAPI(t *testing.T) {
	ds := bigindex.GenerateDataset(bigindex.DatasetOptions{
		Name: "api", Entities: 800, Terms: 80, LeafTypes: 6, Seed: 77,
	})
	if ds.Graph.NumVertices() != 800 {
		t.Fatalf("|V| = %d", ds.Graph.NumVertices())
	}
	qs := bigindex.GenerateQueries(ds, bigindex.DefaultWorkload())
	if len(qs) == 0 {
		t.Fatal("no queries")
	}
	opt := bigindex.DefaultBuildOptions()
	opt.Search.SampleCount = 30
	idx, err := bigindex.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	ev := bigindex.NewEvaluator(idx, bigindex.NewBKWS(3), bigindex.DefaultEvalOptions())
	for _, q := range qs[:2] {
		direct, err := ev.Direct(q.Keywords, 0)
		if err != nil {
			t.Fatal(err)
		}
		boosted, _, err := ev.Eval(q.Keywords)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct) != len(boosted) {
			t.Fatalf("%s diverged", q.ID)
		}
	}
}
