package core

import (
	"math/rand"
	"slices"
	"testing"

	"bigindex/internal/graph"
)

// randomDelta builds a delta over idx's data graph: vertex appends with
// existing labels, random edge adds (including between new vertices), and
// removals of existing edges.
func randomDelta(rng *rand.Rand, g *graph.Graph, nAddV, nAddE, nRmE int) Delta {
	var d Delta
	labels := g.DistinctLabels()
	for i := 0; i < nAddV; i++ {
		d.AddVertices = append(d.AddVertices, labels[rng.Intn(len(labels))])
	}
	total := g.NumVertices() + nAddV
	for i := 0; i < nAddE; i++ {
		d.AddEdges = append(d.AddEdges, graph.Edge{
			From: graph.V(rng.Intn(total)),
			To:   graph.V(rng.Intn(total)),
		})
	}
	es := g.Edges()
	for i := 0; i < nRmE && len(es) > 0; i++ {
		d.RemoveEdges = append(d.RemoveEdges, es[rng.Intn(len(es))])
	}
	return d
}

// graphsEqual is an exact labeled-graph comparison: same vertex IDs,
// same labels, same adjacency.
func graphsEqual(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Label(graph.V(v)) != b.Label(graph.V(v)) || !slices.Equal(a.Out(graph.V(v)), b.Out(graph.V(v))) {
			return false
		}
	}
	return true
}

// absorbableEdges draws up to n added edges that keep layer 1's partition
// intact: each copies an existing edge (u, w) onto a random block-mate of
// u and a random block-mate of w. Every block-mate of u already sees w's
// block, so bisim.Absorbs accepts each one by construction.
func absorbableEdges(rng *rand.Rand, x *Index, n int) []graph.Edge {
	l1 := x.Layer(1)
	es := x.Data().Edges()
	var out []graph.Edge
	for i := 0; i < n && len(es) > 0; i++ {
		e := es[rng.Intn(len(es))]
		from := l1.Down[l1.Up[e.From]]
		to := l1.Down[l1.Up[e.To]]
		out = append(out, graph.Edge{From: from[rng.Intn(len(from))], To: to[rng.Intn(len(to))]})
	}
	return out
}

func sameLayers(t *testing.T, tag string, a, b *Index) {
	t.Helper()
	if a.NumLayers() != b.NumLayers() {
		t.Fatalf("%s: %d layers vs %d", tag, a.NumLayers(), b.NumLayers())
	}
	for li := 0; li < a.NumLayers(); li++ {
		la, lb := a.Layer(li), b.Layer(li)
		if !graphsEqual(la.Graph, lb.Graph) {
			t.Fatalf("%s: layer %d graphs differ", tag, li)
		}
		if !slices.Equal(la.Up, lb.Up) {
			t.Fatalf("%s: layer %d Up maps differ", tag, li)
		}
		if len(la.Down) != len(lb.Down) {
			t.Fatalf("%s: layer %d Down sizes differ", tag, li)
		}
		for s := range la.Down {
			if !slices.Equal(la.Down[s], lb.Down[s]) {
				t.Fatalf("%s: layer %d Down[%d] differs", tag, li, s)
			}
		}
	}
}

// TestAppliedMatchesRefreshed is the delta-pipeline equivalence contract:
// for random mutation batches, Applied must produce layer-for-layer the
// same hierarchy as the full Refreshed pass over the patched graph — the
// invariant the live mutation service rests on. One round in three draws
// a pure-add batch aimed at layer 1's blocks, so the absorbed branch is
// held to the same contract as the re-summarized one.
func TestAppliedMatchesRefreshed(t *testing.T) {
	ds := smallDataset(777)
	idx := buildIndex(t, ds)
	if idx.NumLayers() < 2 {
		t.Skip("need summary layers")
	}
	rng := rand.New(rand.NewSource(778))

	cur := idx
	absorbed := 0
	for round := 0; round < 12; round++ {
		var d Delta
		if round%3 == 0 {
			d = Delta{AddEdges: absorbableEdges(rng, cur, 1+rng.Intn(5))}
		} else {
			d = randomDelta(rng, cur.Data(), rng.Intn(3), 1+rng.Intn(5), rng.Intn(3))
		}

		gotIdx, rep, err := cur.Applied(d, DeltaOptions{})
		if err != nil {
			t.Fatalf("round %d: Applied: %v", round, err)
		}
		patched, err := graph.Patch(cur.Data(), d.AddVertices, d.AddEdges, d.RemoveEdges)
		if err != nil {
			t.Fatalf("round %d: Patch: %v", round, err)
		}
		wantIdx, err := cur.Refreshed(patched)
		if err != nil {
			t.Fatalf("round %d: Refreshed: %v", round, err)
		}
		sameLayers(t, "round", gotIdx, wantIdx)
		if gotIdx.Epoch() != cur.Epoch()+1 {
			t.Fatalf("round %d: epoch %d, want %d", round, gotIdx.Epoch(), cur.Epoch()+1)
		}
		if rep.Absorbed {
			absorbed++
			if rep.RecomputedLayers != 0 {
				t.Fatalf("round %d: absorbed batch recomputed %d layers", round, rep.RecomputedLayers)
			}
			for li := 1; li < cur.NumLayers(); li++ {
				if gotIdx.Layer(li) != cur.Layer(li) {
					t.Fatalf("round %d: absorbed batch rebuilt layer %d", round, li)
				}
			}
		} else if rep.RecomputedLayers != gotIdx.NumLayers()-1 {
			t.Fatalf("round %d: recomputed %d layers, result has %d summaries",
				round, rep.RecomputedLayers, gotIdx.NumLayers()-1)
		}
		// Receiver untouched: same data graph, same epoch.
		if cur.Data() == gotIdx.Data() && !d.Empty() {
			t.Fatalf("round %d: Applied mutated the receiver's data graph", round)
		}
		cur = gotIdx // chain: next round mutates the mutated index
	}
	if absorbed == 0 {
		t.Fatal("no round took the absorbed branch")
	}
}

func TestAppliedEmptyDeltaAbsorbs(t *testing.T) {
	ds := smallDataset(780)
	idx := buildIndex(t, ds)
	got, rep, err := idx.Applied(Delta{}, DeltaOptions{})
	if err != nil {
		t.Fatalf("Applied(empty): %v", err)
	}
	if !rep.Absorbed || rep.RecomputedLayers != 0 {
		t.Fatalf("empty delta not absorbed: %+v", rep)
	}
	if got.Epoch() != idx.Epoch()+1 {
		t.Fatalf("epoch %d, want %d", got.Epoch(), idx.Epoch()+1)
	}
	sameLayers(t, "empty", got, idx)
}

func TestAppliedDuplicateEdgeAbsorbs(t *testing.T) {
	ds := smallDataset(781)
	idx := buildIndex(t, ds)
	es := idx.Data().Edges()
	if len(es) == 0 {
		t.Skip("no edges")
	}
	// Re-adding an existing edge is signature-preserving by definition.
	got, rep, err := idx.Applied(Delta{AddEdges: []graph.Edge{es[0]}}, DeltaOptions{})
	if err != nil {
		t.Fatalf("Applied: %v", err)
	}
	if !rep.Absorbed {
		t.Fatalf("duplicate-edge delta recomputed: %+v", rep)
	}
	sameLayers(t, "dup", got, idx)
}

func TestAppliedRejectsInvalidDelta(t *testing.T) {
	ds := smallDataset(784)
	idx := buildIndex(t, ds)
	n := graph.V(idx.Data().NumVertices())
	if _, _, err := idx.Applied(Delta{AddEdges: []graph.Edge{{From: n, To: 0}}}, DeltaOptions{}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	bad := graph.Label(uint32(idx.Data().Dict().Len()) + 7)
	if _, _, err := idx.Applied(Delta{AddVertices: []graph.Label{bad}}, DeltaOptions{}); err == nil {
		t.Fatal("unknown label accepted")
	}
}
