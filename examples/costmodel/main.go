// Cost model walkthrough: how BiG-index decides what to build and where to
// search (Secs. 3.2 and 4.1 of the paper).
//
// The program generates a small knowledge graph and shows:
//
//  1. the index cost model (Formula 3): compression estimated by sampling
//     radius-r subgraphs vs the exact ratio, and the semantic distortion of
//     configurations of growing size;
//  2. Algorithm 1's greedy configuration search under different budgets
//     (θ, Π);
//  3. the query cost model (Formula 4): per-layer cost_q for a workload,
//     the predicted optimal layer, and Condition 1 of Def. 4.1 ruling out
//     layers that merge query keywords.
//
// Run: go run ./examples/costmodel
package main

import (
	"fmt"
	"log"

	"bigindex"
	"bigindex/internal/cost"

	"bigindex/internal/sampling"
)

func main() {
	ds := bigindex.GenerateDataset(bigindex.DatasetOptions{
		Name: "demo", Entities: 4000, Terms: 300, LeafTypes: 12, Seed: 31,
	})
	g, ont := ds.Graph, ds.Ont
	fmt.Printf("graph: |V|=%d |E|=%d, %d distinct labels\n",
		g.NumVertices(), g.NumEdges(), len(g.DistinctLabels()))

	// (1) Sampling estimator vs exact compression.
	fmt.Println("\n-- compression estimation (Sec. 3.2) --")
	fmt.Printf("sample size for z=1.96, E=5%%: n = %d (the paper rounds to 400)\n",
		sampling.SampleSize(1.96, 0.05))
	full, est := cost.GreedyConfig(g, ont, cost.SearchOptions{
		Theta: 1, Alpha: 0.5, SampleRadius: 2, SampleCount: 400, Seed: 1,
	})
	fmt.Printf("greedy configuration: %d mappings\n", full.Len())
	for _, n := range []int{25, 100, 400} {
		fmt.Printf("  estimate with n=%-4d: %.4f\n", n, est.EstimateCompressPrefix(full, n))
	}
	fmt.Printf("  exact ratio:          %.4f\n", sampling.ExactCompress(g, full))
	fmt.Printf("  distortion:           %.4f\n", full.Distortion(g))

	// (2) Budgets: Π caps the configuration, θ rejects expensive ones.
	fmt.Println("\n-- Algorithm 1 under budgets --")
	for _, pi := range []int{5, 50, 0} {
		cfg, _ := cost.GreedyConfig(g, ont, cost.SearchOptions{
			Theta: 1, Pi: pi, Alpha: 0.5, SampleRadius: 2, SampleCount: 100, Seed: 1,
		})
		fmt.Printf("  Π=%-3v -> |C|=%d, distort=%.4f\n", piLabel(pi), cfg.Len(), cfg.Distortion(g))
	}

	// (3) Query cost model over a real index.
	fmt.Println("\n-- query layer selection (Formula 4, Def. 4.1) --")
	opt := bigindex.DefaultBuildOptions()
	opt.Search.SampleCount = 100
	idx, err := bigindex.Build(g, ont, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index has %d layers\n", idx.NumLayers())
	for _, q := range bigindex.GenerateQueries(ds, bigindex.DefaultWorkload()) {
		t := cost.NewTable(idx, q.Keywords, 0)
		best := t.Argmin(0.5, 0.5)
		fmt.Printf("  %-3s cost_q by layer:", q.ID)
		for m := range t {
			marker := " "
			if m == best {
				marker = "*"
			}
			fmt.Printf(" %s%.3f", marker, t.Cost(m, 0.5))
		}
		fmt.Println()
	}
	fmt.Println("(* = predicted optimal layer; β = 0.5)")

	// Condition 1: a query whose keywords merge at some layer cannot use it.
	terms := ds.TermsOfType[ds.LeafTypeOf[ds.Graph.DistinctLabels()[0]]]
	if len(terms) >= 2 {
		q := []bigindex.Label{terms[0], terms[1]}
		seq := idx.Configs()
		for m := 0; m < idx.NumLayers(); m++ {
			d := seq.DistinctAtLayer(q, m)
			if d < 2 {
				fmt.Printf("\nsibling-term query merges at layer %d -> that layer is ruled out (Def. 4.1 Cond. 1)\n", m)
				break
			}
		}
	}
}

func piLabel(pi int) interface{} {
	if pi == 0 {
		return "∞"
	}
	return pi
}
