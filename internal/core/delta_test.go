package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bigindex/internal/datagen"
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

// dagDataset generates the benchmark harness's graph shape at a small
// size. At this size part of it reaches a cycle, so the edges between such
// vertices that point to a larger ID are dropped, which leaves a DAG.
func dagDataset(entities int) *datagen.Dataset {
	ds := datagen.Generate(datagen.Options{
		Name: "bench", Entities: entities, AvgOut: 2.0, Terms: 200, LeafTypes: 40,
		TypeBranching: 4, TypeHeight: 6, Relations: 60, TermSkew: 1.5, TargetSkew: 2,
		SinkFraction: 0.35, Seed: 7001,
	})
	pos := peelOrder(ds.Graph)
	es := slices.DeleteFunc(ds.Graph.Edges(), func(e graph.Edge) bool {
		return pos[e.From] < 0 && pos[e.To] < 0 && e.From < e.To
	})
	ds.Graph = graph.FromEdges(ds.Graph.Dict(), ds.Graph.Labels(), es)
	return ds
}

// peelOrder returns each vertex's position in a sinks-first peel of g
// (Kahn's algorithm on out-degree), or -1 when it reaches a cycle.
func peelOrder(g *graph.Graph) []int {
	n := g.NumVertices()
	left := make([]int, n)
	pos := make([]int, n)
	var order []graph.V
	for v := range n {
		pos[v] = -1
		if left[v] = g.OutDegree(graph.V(v)); left[v] == 0 {
			order = append(order, graph.V(v))
		}
	}
	for i := 0; i < len(order); i++ {
		pos[order[i]] = i
		for _, u := range g.In(order[i]) {
			if left[u]--; left[u] == 0 {
				order = append(order, u)
			}
		}
	}
	return pos
}

// acyclicAdds draws up to n edges that keep g acyclic: each points from a
// vertex to one peeled before it.
func acyclicAdds(rng *rand.Rand, g *graph.Graph, n int) []graph.Edge {
	pos := peelOrder(g)
	var out []graph.Edge
	for range n {
		u, w := graph.V(rng.Intn(len(pos))), graph.V(rng.Intn(len(pos)))
		if pos[u] > pos[w] {
			out = append(out, graph.Edge{From: u, To: w})
		}
	}
	return out
}

// fingerprint captures everything Applied must leave alone in x.
func fingerprint(x *Index) []uint64 {
	var fp []uint64
	for j := range x.NumLayers() {
		l := x.Layer(j)
		fp = append(fp, l.Graph.Digest(), uint64(len(l.Up)), uint64(len(l.Down)))
		for _, b := range l.Up {
			fp = append(fp, uint64(b))
		}
	}
	return append(fp, x.Epoch())
}

// checkApplied applies d to cur twice and checks the contract: both
// results equal Refreshed over the patched graph layer for layer, carry
// the next epoch, and leave cur untouched; the report matches what
// happened to the layers. It returns the first result.
func checkApplied(t *testing.T, tag string, cur *Index, d Delta) (*Index, *DeltaReport) {
	t.Helper()
	before := fingerprint(cur)
	got, rep, err := cur.Applied(d, DeltaOptions{})
	if err != nil {
		t.Fatalf("%s: Applied: %v", tag, err)
	}
	again, rep2, err := cur.Applied(d, DeltaOptions{})
	if err != nil {
		t.Fatalf("%s: second Applied: %v", tag, err)
	}
	if !slices.Equal(fingerprint(cur), before) {
		t.Fatalf("%s: Applied modified its receiver", tag)
	}
	sameLayers(t, tag+" (twice)", got, again)
	if *rep != *rep2 {
		t.Fatalf("%s: reports differ: %+v vs %+v", tag, rep, rep2)
	}
	patched, err := graph.Patch(cur.Data(), d.AddVertices, d.AddEdges, d.RemoveEdges)
	if err != nil {
		t.Fatalf("%s: Patch: %v", tag, err)
	}
	want, err := cur.Refreshed(patched)
	if err != nil {
		t.Fatalf("%s: Refreshed: %v", tag, err)
	}
	sameLayers(t, tag, got, want)
	if got.Epoch() != cur.Epoch()+1 {
		t.Fatalf("%s: epoch %d, want %d", tag, got.Epoch(), cur.Epoch()+1)
	}

	reused, changed := 0, 0
	for j := 1; j < got.NumLayers(); j++ {
		if got.Layer(j) == cur.Layer(j) {
			reused++
		}
		if got.LayerGraph(j) != cur.LayerGraph(j) {
			changed++
			if rep.FallbackLayers == 0 && graphsEqual(got.LayerGraph(j), cur.LayerGraph(j)) {
				t.Fatalf("%s: layer %d graph rebuilt unchanged", tag, j)
			}
		}
	}
	if rep.Absorbed != (reused == cur.NumLayers()-1 && got.NumLayers() == cur.NumLayers()) {
		t.Fatalf("%s: Absorbed=%v with %d of %d layers reused", tag, rep.Absorbed, reused, cur.NumLayers()-1)
	}
	if rep.RecomputedLayers != changed {
		t.Fatalf("%s: RecomputedLayers=%d, %d layer graphs changed", tag, rep.RecomputedLayers, changed)
	}
	return got, rep
}

// TestAppliedMatchesRefreshed is the delta-pipeline equivalence contract:
// for mutation batches of every kind, Applied must produce layer for layer
// the same hierarchy as the full Refreshed pass over the patched graph —
// the invariant the live mutation service rests on — run twice with the
// same result and leave its receiver untouched. Each case chains its
// batches, so later rounds mutate an Applied result.
func TestAppliedMatchesRefreshed(t *testing.T) {
	// Random batches over a graph half of which reaches a cycle; one round
	// in three is a pure-add batch aimed at layer 1's blocks, so the
	// absorbed outcome is held to the same contract.
	t.Run("mixed", func(t *testing.T) {
		cur := buildIndex(t, smallDataset(777))
		rng := rand.New(rand.NewSource(778))
		absorbed := 0
		for round := range 12 {
			var d Delta
			if round%3 == 0 {
				d = Delta{AddEdges: absorbableEdges(rng, cur, 1+rng.Intn(5))}
			} else {
				d = randomDelta(rng, cur.Data(), rng.Intn(3), 1+rng.Intn(5), rng.Intn(3))
			}
			var rep *DeltaReport
			cur, rep = checkApplied(t, fmt.Sprintf("round %d", round), cur, d)
			if rep.Absorbed {
				absorbed++
			}
		}
		if absorbed == 0 {
			t.Fatal("no round was absorbed")
		}
	})

	// A graph with a reciprocal edge added for one edge in ten:
	// at least 10 % of the vertices reach a cycle, and batches there fall
	// back to whole-layer re-summarization.
	t.Run("cyclic", func(t *testing.T) {
		ds := dagDataset(2000)
		rng := rand.New(rand.NewSource(779))
		var back []graph.Edge
		for _, e := range ds.Graph.Edges() {
			if rng.Intn(10) == 0 {
				back = append(back, graph.Edge{From: e.To, To: e.From})
			}
		}
		g, err := graph.Patch(ds.Graph, nil, back, nil)
		if err != nil {
			t.Fatal(err)
		}
		reach := 0
		for _, p := range peelOrder(g) {
			if p < 0 {
				reach++
			}
		}
		if 10*reach < g.NumVertices() {
			t.Fatalf("only %d of %d vertices reach a cycle", reach, g.NumVertices())
		}
		ds.Graph = g
		cur := buildIndex(t, ds)
		fellBack := 0
		for round := range 8 {
			d := randomDelta(rng, cur.Data(), rng.Intn(2), 1+rng.Intn(8), rng.Intn(4))
			var rep *DeltaReport
			cur, rep = checkApplied(t, fmt.Sprintf("round %d", round), cur, d)
			fellBack += rep.FallbackLayers
		}
		if fellBack == 0 {
			t.Fatal("the cyclic fallback never fired")
		}
	})

	// Removal-only batches over an acyclic graph: removing an edge can make
	// a vertex bisimilar to others, merging blocks, all without fallback.
	t.Run("removals", func(t *testing.T) {
		cur := buildIndex(t, dagDataset(2000))
		rng := rand.New(rand.NewSource(780))
		merged := 0
		for round := range 16 {
			d := randomDelta(rng, cur.Data(), 0, 0, 1+rng.Intn(6))
			blocks := cur.LayerGraph(1).NumVertices()
			next, rep := checkApplied(t, fmt.Sprintf("round %d", round), cur, d)
			if rep.FallbackLayers != 0 {
				t.Fatalf("round %d: fallback on an acyclic graph", round)
			}
			if next.LayerGraph(1).NumVertices() < blocks {
				merged++
			}
			cur = next
		}
		if merged == 0 {
			t.Fatal("no removal merged layer-1 blocks")
		}
	})

	// Vertex appends whose labels occur nowhere in the data graph (ontology
	// types), wired in with edges that keep the graph acyclic.
	t.Run("new labels", func(t *testing.T) {
		cur := buildIndex(t, dagDataset(2000))
		var unused []graph.Label
		for _, l := range cur.Data().Dict().Labels() {
			if cur.Data().LabelCount(l) == 0 {
				unused = append(unused, l)
			}
		}
		if len(unused) == 0 {
			t.Fatal("setup: every label occurs in the data graph")
		}
		rng := rand.New(rand.NewSource(781))
		for round := range 8 {
			var d Delta
			for range 1 + rng.Intn(3) {
				d.AddVertices = append(d.AddVertices, unused[rng.Intn(len(unused))])
			}
			n0 := cur.Data().NumVertices()
			for i := range d.AddVertices {
				v := graph.V(n0 + i)
				d.AddEdges = append(d.AddEdges,
					graph.Edge{From: v, To: graph.V(rng.Intn(n0))},
					graph.Edge{From: graph.V(rng.Intn(n0)), To: v})
			}
			// The second edge of each pair may close a cycle through the
			// new vertex; keep only batches that stay acyclic.
			p, err := graph.Patch(cur.Data(), d.AddVertices, d.AddEdges, nil)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(peelOrder(p), -1) {
				d.AddEdges = d.AddEdges[:0]
				for i := range d.AddVertices {
					d.AddEdges = append(d.AddEdges, graph.Edge{From: graph.V(n0 + i), To: graph.V(rng.Intn(n0))})
				}
			}
			d.AddEdges = append(d.AddEdges, acyclicAdds(rng, cur.Data(), 4)...)
			next, rep := checkApplied(t, fmt.Sprintf("round %d", round), cur, d)
			if rep.FallbackLayers != 0 {
				t.Fatalf("round %d: fallback on an acyclic graph", round)
			}
			cur = next
		}
	})
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
