// Maintenance: keeping a BiG-index alive under change (Sec. 3.2).
//
// The paper sketches three maintenance cases; this example runs all of
// them on a live index:
//
//  1. data-graph updates — new vertices/edges arrive; Refreshed re-runs
//     Gen+Bisim with the *stored* configurations (no configuration
//     search), and answers stay exact;
//  2. mutation batches — Index.Applied re-signs only the vertices a batch
//     reaches, layer by layer: a batch that moves no vertex to another
//     block is absorbed (every summary layer is reused as it is), and one
//     that does rebuilds only the summary layers whose graph changed;
//  3. ontology updates — adding supertype edges never invalidates the
//     index; removing one drops the affected layers (and everything above
//     them).
//
// Run: go run ./examples/maintenance
package main

import (
	"fmt"
	"log"

	"bigindex"
	"bigindex/internal/core"
	"bigindex/internal/graph"
)

func main() {
	ds := bigindex.GenerateDataset(bigindex.DatasetOptions{
		Name: "maint", Entities: 3000, Terms: 250, LeafTypes: 10, Seed: 55,
	})
	opt := bigindex.DefaultBuildOptions()
	opt.Search.SampleCount = 60
	idx, err := bigindex.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built index: %d layers over |V|=%d |E|=%d\n",
		idx.NumLayers(), ds.Graph.NumVertices(), ds.Graph.NumEdges())

	algo := bigindex.NewBKWS(3)
	ev := bigindex.NewEvaluator(idx, algo, bigindex.DefaultEvalOptions())
	q := []bigindex.Label{}
	for _, l := range ds.Graph.DistinctLabels() {
		if ds.Graph.LabelCount(l) >= 20 && len(q) < 2 {
			q = append(q, l)
		}
	}
	if len(q) < 2 {
		log.Fatal("workload too sparse")
	}
	before, _, err := ev.Eval(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query answers before update: %d\n", len(before))

	// ---- (1) data update + Refreshed ----
	b := bigindex.NewGraphBuilder(ds.Graph.Dict())
	for v := 0; v < ds.Graph.NumVertices(); v++ {
		b.AddVertexLabel(ds.Graph.Label(bigindex.V(v)))
	}
	for _, e := range ds.Graph.Edges() {
		b.AddEdge(e.From, e.To)
	}
	// 50 new entities of an existing popular term, wired to vertex 0's
	// neighborhood.
	for i := 0; i < 50; i++ {
		nv := b.AddVertexLabel(q[0])
		b.AddEdge(nv, bigindex.V(i%100))
	}
	g2 := b.Build()
	idx, err = idx.Refreshed(g2)
	if err != nil {
		log.Fatal(err)
	}
	ev2 := bigindex.NewEvaluator(idx, algo, bigindex.DefaultEvalOptions())
	after, _, err := ev2.Eval(q)
	if err != nil {
		log.Fatal(err)
	}
	direct, err := ev2.Direct(q, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after +50 vertices and Refreshed: %d answers (direct agrees: %v)\n",
		len(after), len(after) == len(direct))

	// ---- (2) mutation batches through Applied ----
	// A duplicate of an existing edge moves no vertex: the batch is
	// absorbed and no summary layer is recomputed.
	var e graph.Edge
	for v := graph.V(0); int(v) < g2.NumVertices(); v++ {
		if out := g2.Out(v); len(out) > 0 {
			e = graph.Edge{From: v, To: out[0]}
			break
		}
	}
	idx, rep, err := idx.Applied(core.Delta{AddEdges: []graph.Edge{e}}, core.DeltaOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("duplicate-edge batch: absorbed=%v, %d layers recomputed\n",
		rep.Absorbed, rep.RecomputedLayers)
	// Removing that edge may move its source to another block; the batch
	// then rebuilds the summary layers whose graph changed, and only those.
	idx, rep, err = idx.Applied(core.Delta{RemoveEdges: []graph.Edge{e}}, core.DeltaOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("removal batch: absorbed=%v, %d of %d layers recomputed (epoch %d)\n",
		rep.Absorbed, rep.RecomputedLayers, idx.NumLayers()-1, idx.Epoch())

	// ---- (3) ontology update ----
	layersBefore := idx.NumLayers()
	ms := idx.Layer(1).Config.Mappings()
	dropped := idx.RemoveOntologyMapping(ms[0].From, ms[0].To)
	fmt.Printf("removed ontology edge used by layer 1: dropped %d of %d layers\n",
		dropped, layersBefore)
	// The remaining index is just the data graph; rebuilding restores it.
	idx2, err := bigindex.Build(g2, ds.Ont, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("periodic rebuild restores %d layers\n", idx2.NumLayers())
}
