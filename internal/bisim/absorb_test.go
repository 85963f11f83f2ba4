package bisim

import (
	"math/rand"
	"slices"
	"testing"

	"bigindex/internal/graph"
)

// TestMaintainerPropertyEquivalence is the soundness backstop for the one
// maintenance shortcut the live mutation service takes: for many random
// graphs and random pure-add batches (including duplicates, self-loops and
// existing edges), whenever Absorbs accepts the batch a fresh Compute on
// graph.Patch(g, batch) must yield exactly the stored partition — same
// Block, same Members, same quotient graph. Any counterexample means the
// absorbed path would serve a stale hierarchy.
func TestMaintainerPropertyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1207))
	trials := 400
	if testing.Short() {
		trials = 100
	}
	absorbed := 0
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(24)
		g := randomGraph(rng, n, rng.Intn(3*n), 1+rng.Intn(4))
		r := Compute(g)

		var batch []graph.Edge
		for i := 1 + rng.Intn(5); i > 0; i-- {
			if es := g.Edges(); len(es) > 0 && rng.Intn(4) == 0 {
				batch = append(batch, es[rng.Intn(len(es))])
				continue
			}
			batch = append(batch, graph.Edge{From: graph.V(rng.Intn(n)), To: graph.V(rng.Intn(n))})
		}
		if !Absorbs(g, r, batch) {
			continue
		}
		absorbed++
		patched, err := graph.Patch(g, nil, batch, nil)
		if err != nil {
			t.Fatalf("trial %d: Patch: %v", trial, err)
		}
		got := Compute(patched)
		if !slices.Equal(got.Block, r.Block) {
			t.Fatalf("trial %d: absorbed batch %v changed the partition (n=%d)", trial, batch, n)
		}
		if !sameGraph(got.Summary, r.Summary) {
			t.Fatalf("trial %d: absorbed batch %v changed the quotient graph", trial, batch)
		}
	}
	// The property is vacuous unless the generator actually reaches the
	// absorbed branch often enough to matter.
	if absorbed < trials/10 {
		t.Fatalf("only %d of %d random batches were absorbed", absorbed, trials)
	}
}

func sameGraph(a, b *graph.Graph) bool {
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

// TestMaintainerFastPath covers the trivial absorbed cases: an empty batch
// and re-adding an existing edge never disturb a partition.
func TestMaintainerFastPath(t *testing.T) {
	b := graph.NewBuilder(nil)
	person := b.Dict().Intern("P")
	org := b.Dict().Intern("O")
	p1 := b.AddVertexLabel(person)
	p2 := b.AddVertexLabel(person)
	o1 := b.AddVertexLabel(org)
	o2 := b.AddVertexLabel(org)
	b.AddEdge(p1, o1)
	b.AddEdge(p2, o1)
	b.AddEdge(o1, o2)
	g := b.Build()
	r := Compute(g)
	if !Absorbs(g, r, nil) {
		t.Fatal("empty batch not absorbed")
	}
	if !Absorbs(g, r, []graph.Edge{{From: p1, To: o1}, {From: o1, To: o2}}) {
		t.Fatal("duplicate edges not absorbed")
	}
	if Absorbs(g, r, []graph.Edge{{From: p1, To: 4}}) {
		t.Fatal("edge to a vertex outside g absorbed")
	}
}

// TestAddEdgesBatchAbsorb checks that a batch of signature-preserving edges
// is absorbed and that the stored partition still matches a fresh Compute.
func TestAddEdgesBatchAbsorb(t *testing.T) {
	// p1, p2 both point at o1; o1 and o2 share a block only if they agree
	// structurally, so make them both sinks.
	b := graph.NewBuilder(nil)
	person := b.Dict().Intern("P")
	org := b.Dict().Intern("O")
	p1 := b.AddVertexLabel(person)
	p2 := b.AddVertexLabel(person)
	o1 := b.AddVertexLabel(org)
	o2 := b.AddVertexLabel(org)
	b.AddEdge(p1, o1)
	b.AddEdge(p2, o2)
	g := b.Build()
	r := Compute(g)

	// o1 and o2 are bisimilar sinks, p1 and p2 bisimilar sources. Adding
	// p1->o2 and p2->o1 keeps every signature {block(o)} intact.
	batch := []graph.Edge{{From: p1, To: o2}, {From: p2, To: o1}}
	if !Absorbs(g, r, batch) {
		t.Fatal("signature-preserving batch not absorbed")
	}
	patched, err := graph.Patch(g, nil, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(Compute(patched).Block, r.Block) {
		t.Fatal("absorbed partition diverged from fresh Compute")
	}
}

// TestAddEdgesBatchDirty checks the non-absorbable case: a batch containing
// one signature-changing edge is refused, and the recomputed partition
// indeed differs.
func TestAddEdgesBatchDirty(t *testing.T) {
	b := graph.NewBuilder(nil)
	person := b.Dict().Intern("P")
	org := b.Dict().Intern("O")
	p1 := b.AddVertexLabel(person)
	p2 := b.AddVertexLabel(person)
	o1 := b.AddVertexLabel(org)
	b.AddEdge(p1, o1)
	g := b.Build()
	r := Compute(g)
	if r.Block[p1] == r.Block[p2] {
		t.Fatal("setup: p1 and p2 should differ (only p1 has an out-edge)")
	}
	// p2->o1 changes p2's signature from {} to {block(o1)}: p1 and p2 merge.
	batch := []graph.Edge{{From: p1, To: o1}, {From: p2, To: o1}}
	if Absorbs(g, r, batch) {
		t.Fatal("signature-changing batch absorbed")
	}
	patched, err := graph.Patch(g, nil, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := Compute(patched)
	if after.Block[p1] != after.Block[p2] {
		t.Fatal("p1 and p2 should be bisimilar after the add")
	}
}
