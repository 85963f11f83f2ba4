package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/graph"
	"bigindex/internal/snapshot"
)

// TestAppliedChainSnapshotBytes chains 64 random batches — vertex appends,
// edge adds that may close cycles, removals — through Applied and, side by
// side, through Refreshed over the patched graph, and requires the two
// indexes to serialize to the same snapshot bytes after every batch.
func TestAppliedChainSnapshotBytes(t *testing.T) {
	ds := datagen.Generate(datagen.Options{
		Name: "bench", Entities: 1500, AvgOut: 2.0, Terms: 200, LeafTypes: 40,
		TypeBranching: 4, TypeHeight: 6, Relations: 60, TermSkew: 1.5, TargetSkew: 2,
		SinkFraction: 0.35, Seed: 7002,
	})
	applied, err := core.Build(ds.Graph, ds.Ont, core.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	refreshed := applied
	encode := func(x *core.Index) []byte {
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, x, snapshot.Meta{CreatedUnix: 1}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rng := rand.New(rand.NewSource(7003))
	labels := ds.Graph.DistinctLabels()
	for i := range 64 {
		g := applied.Data()
		var d core.Delta
		for range rng.Intn(3) {
			d.AddVertices = append(d.AddVertices, labels[rng.Intn(len(labels))])
		}
		n := g.NumVertices() + len(d.AddVertices)
		for range rng.Intn(8) {
			d.AddEdges = append(d.AddEdges, graph.Edge{From: graph.V(rng.Intn(n)), To: graph.V(rng.Intn(n))})
		}
		es := g.Edges()
		for range rng.Intn(4) {
			d.RemoveEdges = append(d.RemoveEdges, es[rng.Intn(len(es))])
		}
		if applied, _, err = applied.Applied(d, core.DeltaOptions{}); err != nil {
			t.Fatalf("batch %d: Applied: %v", i, err)
		}
		patched, err := graph.Patch(refreshed.Data(), d.AddVertices, d.AddEdges, d.RemoveEdges)
		if err != nil {
			t.Fatalf("batch %d: Patch: %v", i, err)
		}
		if refreshed, err = refreshed.Refreshed(patched); err != nil {
			t.Fatalf("batch %d: Refreshed: %v", i, err)
		}
		if !bytes.Equal(encode(applied), encode(refreshed)) {
			t.Fatalf("batch %d: Applied and Refreshed snapshots differ", i)
		}
	}
}
