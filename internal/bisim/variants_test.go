package bisim

import (
	"math/rand"
	"testing"

	"bigindex/internal/graph"
)

func TestComputeKConvergesToMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(3*n), 2+rng.Intn(2))
		full := Compute(g)
		deep := ComputeK(g, n+1) // more rounds than can ever refine
		if !samePartition(full, deep, n) {
			t.Fatalf("trial %d: ComputeK(n+1) != Compute", trial)
		}
		// Block counts must be monotone in k and coarser than maximal.
		prev := 0
		for k := 0; k <= 4; k++ {
			rk := ComputeK(g, k)
			if rk.NumBlocks() < prev {
				t.Fatalf("trial %d: block count decreased with k", trial)
			}
			if rk.NumBlocks() > full.NumBlocks() {
				t.Fatalf("trial %d: k-bisim finer than maximal", trial)
			}
			prev = rk.NumBlocks()
		}
		// k = 0 is the label partition.
		r0 := ComputeK(g, 0)
		labels := map[graph.Label]bool{}
		for _, l := range g.DistinctLabels() {
			labels[l] = true
		}
		if r0.NumBlocks() != len(labels) {
			t.Fatalf("trial %d: k=0 blocks %d, labels %d", trial, r0.NumBlocks(), len(labels))
		}
	}
}

// TestVariantsAreSoundQuotients: every variant's summary maps member edges
// to summary edges and its blocks are label-pure — the two properties the
// framework needs.
func TestVariantsAreSoundQuotients(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(3*n), 2+rng.Intn(2))
		for name, res := range map[string]*Result{
			"k2":      ComputeK(g, 2),
			"forward": ComputeForward(g),
		} {
			for _, e := range g.Edges() {
				if !res.Summary.HasEdge(res.Block[e.From], res.Block[e.To]) {
					t.Fatalf("%s: edge %v not preserved", name, e)
				}
			}
			for s, members := range res.Members {
				for _, v := range members {
					if g.Label(v) != res.Summary.Label(graph.V(s)) {
						t.Fatalf("%s: block %d mixes labels", name, s)
					}
				}
			}
		}
	}
}

// reverseGraph flips every edge.
func reverseGraph(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.Dict())
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertexLabel(g.Label(graph.V(v)))
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.To, e.From)
	}
	return b.Build()
}

// TestForwardEqualsBackwardOnReverse: forward bisimulation of g is exactly
// backward bisimulation of the reversed graph.
func TestForwardEqualsBackwardOnReverse(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(3*n), 2+rng.Intn(2))
		fwd := ComputeForward(g)
		rev := Compute(reverseGraph(g))
		if !samePartition(fwd, rev, n) {
			t.Fatalf("trial %d: forward(g) != backward(reverse(g))", trial)
		}
	}
}

func samePartition(a, b *Result, n int) bool {
	// Partitions are equal iff the block-of relation agrees pairwise; block
	// numbering may differ.
	remap := map[graph.V]graph.V{}
	for v := 0; v < n; v++ {
		av, bv := a.Block[v], b.Block[v]
		if got, ok := remap[av]; ok {
			if got != bv {
				return false
			}
		} else {
			remap[av] = bv
		}
	}
	return len(remap) == b.NumBlocks()
}
