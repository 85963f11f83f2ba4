// Per-operation microbenchmarks of the build and query substrate. The
// paper's tables and figures are regenerated by cmd/benchrunner (see
// DESIGN.md §4 and EXPERIMENTS.md); serving performance is measured by
// benchmark/.
//
// Run everything:   go test -bench=. -benchmem
//
// Fixtures (datasets + built indexes) are cached across benchmarks, so the
// first benchmark in a run pays construction cost once; construction itself
// is measured by BenchmarkIndexConstruction.
package bigindex_test

import (
	"fmt"
	"math/rand"
	"testing"

	"bigindex"
	"bigindex/internal/bench"
	"bigindex/internal/core"
	"bigindex/internal/cost"
	"bigindex/internal/datagen"
	"bigindex/internal/graph"
	"bigindex/internal/partition"
	"bigindex/internal/search"
)

// BenchmarkIndexConstruction measures Exp-3's construction time directly
// (per iteration: full multi-layer build on the YAGO3 stand-in).
func BenchmarkIndexConstruction(b *testing.B) {
	ds := datagen.YagoSmall()
	opt := core.DefaultBuildOptions()
	opt.Search.SampleCount = bench.SampleCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(ds.Graph, ds.Ont, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryDirectVsBoosted is a microbenchmark pair for the headline
// comparison on one representative query (the |Q|=3 Q3 analog on yago-s).
func BenchmarkQueryDirectVsBoosted(b *testing.B) {
	f, err := bench.GetFixture("yago-s")
	if err != nil {
		b.Fatal(err)
	}
	var q []datagen.Query = f.Queries
	if len(q) < 3 {
		b.Skip("workload too small")
	}
	kw := q[2].Keywords

	ev := core.NewEvaluator(f.Index, bench.NewBlinks(), core.DefaultEvalOptions())
	if _, err := ev.Direct(kw, 0); err != nil {
		b.Fatal(err)
	}
	if _, _, err := ev.Eval(kw); err != nil {
		b.Fatal(err)
	}

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.Direct(kw, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("boosted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ev.Eval(kw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBisimulation isolates the summarization substrate on layer-1
// inputs (the data graph generalized by the built index's first config):
//   - yago-s: the YAGO3 stand-in;
//   - bench120k: a 120k-entity graph shaped like benchmark/'s (acyclic, so
//     one rank-ordered pass covers every vertex);
//   - bench120k-recip10: the same graph with a reciprocal edge on ~10 % of
//     its edges, so ~60 % of its vertices reach a cycle and run the
//     refinement path.
func BenchmarkBisimulation(b *testing.B) {
	f, err := bench.GetFixture("yago-s")
	if err != nil {
		b.Fatal(err)
	}
	type input struct {
		name string
		g    *graph.Graph
	}
	inputs := []input{{"yago-s", f.Index.Layer(1).Config.Apply(f.DS.Graph)}}

	ds := benchShaped(120_000)
	opt := core.DefaultBuildOptions()
	opt.MaxLayers = 1
	idx, err := core.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		b.Fatal(err)
	}
	cfg := idx.Layer(1).Config
	rng := rand.New(rand.NewSource(7001))
	rb := graph.NewBuilder(ds.Graph.Dict())
	for _, l := range ds.Graph.Labels() {
		rb.AddVertexLabel(l)
	}
	for _, e := range ds.Graph.Edges() {
		rb.AddEdge(e.From, e.To)
		if rng.Intn(10) == 0 {
			rb.AddEdge(e.To, e.From)
		}
	}
	inputs = append(inputs,
		input{"bench120k", cfg.Apply(ds.Graph)},
		input{"bench120k-recip10", cfg.Apply(rb.Build())})

	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bisimSink = bigindex.Bisim(in.g)
			}
		})
	}
}

var bisimSink *bigindex.BisimResult

// benchShaped generates a graph with benchmark/'s shape (its genDataset
// options) at the given size.
func benchShaped(entities int) *datagen.Dataset {
	return datagen.Generate(datagen.Options{
		Name: "bench", Entities: entities, AvgOut: 2.0, Terms: 1500, LeafTypes: 40,
		TypeBranching: 4, TypeHeight: 6, Relations: 60, TermSkew: 1.5, TargetSkew: 2,
		SinkFraction: 0.35, Seed: 7001,
	})
}

// BenchmarkAlgorithmPrepare isolates per-layer search-index construction.
func BenchmarkAlgorithmPrepare(b *testing.B) {
	f, err := bench.GetFixture("yago-s")
	if err != nil {
		b.Fatal(err)
	}
	var algo search.Algorithm = bench.NewBlinks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Prepare(f.DS.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyConfig isolates Algorithm 1 (per-layer configuration
// search with sampling) on the YAGO3 stand-in.
func BenchmarkGreedyConfig(b *testing.B) {
	ds := datagen.YagoSmall()
	opt := cost.DefaultSearchOptions()
	opt.SampleCount = bench.SampleCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, _ := cost.GreedyConfig(ds.Graph, ds.Ont, opt)
		if cfg.Len() == 0 {
			b.Fatal("empty configuration")
		}
	}
}

// BenchmarkPartition isolates the METIS-substitute partitioner.
func BenchmarkPartition(b *testing.B) {
	ds := datagen.YagoSmall()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.BFSGrow(ds.Graph, bench.BlockSize)
		if p.NumBlocks() == 0 {
			b.Fatal("no blocks")
		}
	}
}

// BenchmarkRCliquePrepare isolates the neighbor-index build (the O(n·m)
// structure of Exp-1's infeasibility discussion).
func BenchmarkRCliquePrepare(b *testing.B) {
	ds := datagen.YagoSmall()
	algo := bench.NewRClique()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Prepare(ds.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalBatch measures concurrent multi-query throughput.
func BenchmarkEvalBatch(b *testing.B) {
	f, err := bench.GetFixture("yago-s")
	if err != nil {
		b.Fatal(err)
	}
	ev := core.NewEvaluator(f.Index, bench.NewBlinks(), core.DefaultEvalOptions())
	var queries [][]graph.Label
	for _, q := range f.Queries {
		queries = append(queries, q.Keywords)
	}
	// Warm the prepared caches.
	for _, r := range ev.EvalBatch(queries) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range ev.EvalBatch(queries) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkTopK pairs exhaustive evaluation (K=0) with top-10 (K=10) for
// Blinks over the fixture's queries: top-k evaluation should be no slower
// than evaluating everything and truncating.
func BenchmarkTopK(b *testing.B) {
	f, err := bench.GetFixture("yago-s")
	if err != nil {
		b.Fatal(err)
	}
	ev := core.NewEvaluator(f.Index, bench.NewBlinks(), core.DefaultEvalOptions())
	evalAll := func(b *testing.B) {
		for _, q := range f.Queries {
			if _, _, err := ev.Eval(q.Keywords); err != nil {
				b.Fatal(err)
			}
		}
	}
	evalAll(b) // prepares every layer the queries route to, whatever K
	for _, k := range []int{0, 10} {
		opt := core.DefaultEvalOptions()
		opt.K = k
		ev.SetOptions(opt)
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				evalAll(b)
			}
		})
	}
}

// BenchmarkApplied measures one mutation batch through Index.Applied — the
// maintenance step behind POST /admin/edges — on a 50k-entity graph with
// the benchmark harness's shape and batch mix (16 edges added, 4 removed).
// Every batch applies to the same base index, so the graph never drifts.
func BenchmarkApplied(b *testing.B) {
	ds := benchShaped(50_000)
	idx, err := core.Build(ds.Graph, ds.Ont, core.DefaultBuildOptions())
	if err != nil {
		b.Fatal(err)
	}
	g := idx.Data()
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(1))
	batches := make([]core.Delta, 8)
	for i := range batches {
		d := &batches[i]
		for len(d.AddEdges) < 16 {
			e := graph.Edge{From: graph.V(rng.Intn(n)), To: graph.V(rng.Intn(n))}
			if e.From != e.To && !g.HasEdge(e.From, e.To) {
				d.AddEdges = append(d.AddEdges, e)
			}
		}
		for len(d.RemoveEdges) < 4 {
			u := graph.V(rng.Intn(n))
			if out := g.Out(u); len(out) > 0 {
				d.RemoveEdges = append(d.RemoveEdges, graph.Edge{From: u, To: out[rng.Intn(len(out))]})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := idx.Applied(batches[i%len(batches)], core.DeltaOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
