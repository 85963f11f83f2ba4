package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bigindex/internal/graph"
)

// replacedBytes is the size of the arrays a successor index cannot share
// with x: layer 0's CSR, and the vertex maps, labels and CSR of every
// summary layer it does not reuse. Postings, map headers and scratch are
// not counted.
func replacedBytes(x, next *Index) int {
	csr := func(g *graph.Graph) int { return 4 * (2*(g.NumVertices()+1) + 2*g.NumEdges()) }
	total := csr(next.Data())
	for i := 1; i < next.NumLayers(); i++ {
		l := next.Layer(i)
		if i < x.NumLayers() && l == x.Layer(i) {
			continue
		}
		total += csr(l.Graph) + 4*l.Graph.NumVertices()     // CSR and labels
		total += 4*len(l.Up) + 4*len(l.Up) + 24*len(l.Down) // Up, Down's members and row headers
	}
	return total
}

// TestAppliedAllocatesWhatItReplaces bounds the bytes one Applied batch
// allocates by a small multiple of the arrays it has to write anew, on a
// 30k-entity benchmark-shaped DAG with the benchmark's batch mix (16
// edges added, 4 removed), so no layer falls back to Compute. Each summary layer is written straight from
// its signatures; rebuilding one through an edge list and graph.Builder
// (8 bytes per edge, grown by appends, then sorted into the CSR) went
// past the bound.
func TestAppliedAllocatesWhatItReplaces(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation volumes")
	}
	if testing.Short() {
		t.Skip("builds a 30k-entity index")
	}
	const bound = 1.22
	ds := dagDataset(30_000)
	x, err := Build(ds.Graph, ds.Ont, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := x.Data()
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(1))
	var d Delta
	for len(d.AddEdges) < 16 {
		for _, e := range acyclicAdds(rng, g, 1) {
			if !g.HasEdge(e.From, e.To) && !slices.Contains(d.AddEdges, e) {
				d.AddEdges = append(d.AddEdges, e)
			}
		}
	}
	for len(d.RemoveEdges) < 4 {
		u := graph.V(rng.Intn(n))
		if out := g.Out(u); len(out) > 0 {
			d.RemoveEdges = append(d.RemoveEdges, graph.Edge{From: u, To: out[rng.Intn(len(out))]})
		}
	}
	// One warm-up batch, then the mean of a few.
	next, rep, err := x.Applied(d, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Absorbed || rep.FallbackLayers > 0 {
		t.Fatalf("batch absorbed=%v fallback=%d: want a local delta", rep.Absorbed, rep.FallbackLayers)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, _, err := x.Applied(d, DeltaOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	must := float64(replacedBytes(x, next))
	t.Logf("%d of %d summary layers rewritten: %.0f bytes allocated, %.0f replaced (%.2f×)",
		rep.RecomputedLayers, x.NumLayers()-1, got, must, got/must)
	if got > bound*must {
		t.Fatalf("Applied allocated %.0f bytes, %.2f× the %.0f it replaces (bound %.2f×)", got, got/must, must, bound)
	}
}
