package shard_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/shard"
)

// sparseQueryGraph is n vertices with ~2n random edges, every vertex
// labelled "x" except three labelled "a" and three labelled "b": a query
// for a and b touches a few dozen vertices of a large graph, so its
// per-query cost must not depend on how finely the graph is partitioned.
func sparseQueryGraph(n int) (*graph.Graph, []graph.Label) {
	rng := rand.New(rand.NewSource(61))
	b := graph.NewBuilder(nil)
	x, la, lb := b.Dict().Intern("x"), b.Dict().Intern("a"), b.Dict().Intern("b")
	for i := 0; i < n; i++ {
		l := x
		switch {
		case i%(n/3) == 0:
			l = la
		case i%(n/3) == 1:
			l = lb
		}
		b.AddVertexLabel(l)
	}
	for i := 0; i < 2*n; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	return b.Build(), []graph.Label{la, lb}
}

// searchCost reports the allocations (testing.AllocsPerRun) and the median
// bytes allocated of one exhaustive sharded bkws search over shard.Local,
// after a warm-up search has filled the pools. The median keeps a
// collection that empties a pool mid-measurement from skewing the bytes.
func searchCost(t *testing.T, g *graph.Graph, q []graph.Label, blockSize int) (allocs float64, bytes uint64, blocks int) {
	t.Helper()
	plans := shard.NewPlanCache(shard.Options{BlockSize: blockSize})
	algo := shard.New(shard.ModeBKWS, 3, shard.Options{Workers: 1, BlockSize: blockSize, Cache: plans})
	prep, err := algo.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	search := func() {
		if _, err := prep.Search(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	search()
	allocs = testing.AllocsPerRun(20, search)
	var runs []uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < 15; i++ {
		runtime.ReadMemStats(&m0)
		search()
		runtime.ReadMemStats(&m1)
		runs = append(runs, m1.TotalAlloc-m0.TotalAlloc)
	}
	slices.Sort(runs)
	return allocs, runs[len(runs)/2], plans.For(g).NumBlocks()
}

// TestSearchCostIndependentOfBlockCount pins the coordinator's cost model:
// a round is one Expand call on pooled, epoch-stamped rows, so nothing a
// query allocates is sized by the plan's block count. The same search
// over one-vertex blocks (one block per vertex) and over 200-vertex
// blocks must allocate the same number of times, within a small constant,
// and the same bytes within far less than one byte per block. What may
// differ is the per-slot response, which scales with the few dozen
// vertices the query touches.
func TestSearchCostIndependentOfBlockCount(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	g, q := sparseQueryGraph(60000)
	coarseAllocs, coarseBytes, coarseBlocks := searchCost(t, g, q, 200)
	fineAllocs, fineBytes, fineBlocks := searchCost(t, g, q, 1)
	t.Logf("blocks %d: %.0f allocs, %d B; blocks %d: %.0f allocs, %d B",
		coarseBlocks, coarseAllocs, coarseBytes, fineBlocks, fineAllocs, fineBytes)
	if fineBlocks < 4*coarseBlocks {
		t.Fatalf("plans have %d and %d blocks; the test needs far more fine blocks", coarseBlocks, fineBlocks)
	}
	if fineAllocs > coarseAllocs+8 {
		t.Errorf("%.0f allocations over %d blocks vs %.0f over %d: allocations scale with the block count",
			fineAllocs, fineBlocks, coarseAllocs, coarseBlocks)
	}
	if fineBytes > coarseBytes+uint64(fineBlocks)/8 {
		t.Errorf("%d bytes over %d blocks vs %d over %d: allocation scales with the block count",
			fineBytes, fineBlocks, coarseBytes, coarseBlocks)
	}
}
