package bisim

import (
	"math/rand"
	"slices"
	"testing"

	"bigindex/internal/graph"
)

// batch is one random mutation of a graph in graph.Patch's terms.
type batch struct {
	verts         []graph.Label
	adds, removes []graph.Edge
}

// randomBatch draws up to k vertex appends (labels from the whole
// dictionary, so possibly new to g), edge adds among old and new
// vertices, and removals of present edges. With dag set every add points
// from a higher ID to a lower one, so an acyclic g stays acyclic.
func randomBatch(rng *rand.Rand, g *graph.Graph, k int, dag bool) batch {
	var d batch
	for range rng.Intn(k + 1) {
		d.verts = append(d.verts, graph.Label(1+rng.Intn(g.Dict().Len())))
	}
	n := g.NumVertices() + len(d.verts)
	for range rng.Intn(k + 1) {
		u, w := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
		if dag {
			if u == w {
				continue
			}
			u, w = max(u, w), min(u, w)
		}
		d.adds = append(d.adds, graph.Edge{From: u, To: w})
	}
	if es := g.Edges(); len(es) > 0 {
		for range rng.Intn(k + 1) {
			d.removes = append(d.removes, es[rng.Intn(len(es))])
		}
	}
	return d
}

// changeOf describes graph.Patch(g, d) against g the way the index does:
// old vertices map to themselves, and the new vertices and every edge
// source are touched.
func changeOf(g *graph.Graph, d batch) Change {
	n := g.NumVertices() + len(d.verts)
	ch := Change{Prev: make([]graph.V, n)}
	for v := range ch.Prev {
		ch.Prev[v] = graph.V(v)
		if v >= g.NumVertices() {
			ch.Prev[v] = NoVertex
			ch.Touched = append(ch.Touched, graph.V(v))
		}
	}
	for _, e := range append(slices.Clone(d.adds), d.removes...) {
		ch.Touched = append(ch.Touched, e.From)
	}
	return ch
}

// sameResult fails t unless got and want have identical blocks, member
// rows and summary graphs.
func sameResult(t testing.TB, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Block, want.Block) {
		t.Fatalf("Block %v, want %v", got.Block, want.Block)
	}
	if len(got.Members) != len(want.Members) {
		t.Fatalf("%d blocks, want %d", len(got.Members), len(want.Members))
	}
	for s := range got.Members {
		if !slices.Equal(got.Members[s], want.Members[s]) {
			t.Fatalf("Members[%d] = %v, want %v", s, got.Members[s], want.Members[s])
		}
	}
	gs, ws := got.Summary, want.Summary
	if gs.Dict() != ws.Dict() || !slices.Equal(gs.Labels(), ws.Labels()) || !slices.Equal(gs.Edges(), ws.Edges()) {
		t.Fatalf("summary %v (%v), want %v (%v)", gs, gs.Edges(), ws, ws.Edges())
	}
}

// checkUpdate applies d to g, requires Update to equal Compute on the
// patched graph whenever it does not give up, and then drives a second
// layer — the summary generalized by merging every label into the first
// one — with the Change Update handed back. It leaves old untouched and
// reports whether both layers were maintained locally.
func checkUpdate(t testing.TB, g *graph.Graph, d batch) bool {
	t.Helper()
	patched, err := graph.Patch(g, d.verts, d.adds, d.removes)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	same := func(l graph.Label) graph.Label { return l }
	old := Compute(g)
	oldBlock := slices.Clone(old.Block)
	got, next, ok := Update(patched, same, old, changeOf(g, d))
	if !slices.Equal(old.Block, oldBlock) {
		t.Fatal("Update modified the old result")
	}
	if !ok {
		return false
	}
	want := Compute(patched)
	sameResult(t, got, want)
	if got == old && (patched.NumVertices() != g.NumVertices() || got.Summary != old.Summary) {
		t.Fatal("Update returned the old result for a changed partition")
	}
	for k, p := range next.Prev {
		if p == NoVertex {
			if !slices.Contains(next.Touched, graph.V(k)) {
				t.Fatalf("new summary vertex %d is not touched", k)
			}
			continue
		}
		var mapped []graph.V
		for _, w := range got.Summary.Out(graph.V(k)) {
			mapped = append(mapped, next.Prev[w])
		}
		slices.Sort(mapped)
		if got.Summary.Label(graph.V(k)) != old.Summary.Label(p) || !slices.Equal(mapped, old.Summary.Out(p)) {
			t.Fatalf("summary vertex %d differs from its old counterpart %d", k, p)
		}
	}
	if got == old {
		return true
	}

	first := func(graph.Label) graph.Label { return 1 }
	old2 := Compute(old.Summary.Relabel(first))
	got2, _, ok := Update(got.Summary, first, old2, next)
	if !ok {
		return false
	}
	sameResult(t, got2, Compute(got.Summary.Relabel(first)))
	return true
}

func TestUpdateMatchesComputeOnDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := range 400 {
		n := 1 + rng.Intn(40)
		b := graph.NewBuilder(nil)
		for _, name := range []string{"A", "B", "C", "D"} {
			b.Dict().Intern(name)
		}
		for range n {
			b.AddVertexLabel(graph.Label(1 + rng.Intn(3))) // "D" stays new
		}
		for range rng.Intn(3 * n) {
			u, w := rng.Intn(n), rng.Intn(n)
			if u != w {
				b.AddEdge(graph.V(max(u, w)), graph.V(min(u, w)))
			}
		}
		g := b.Build()
		if !checkUpdate(t, g, randomBatch(rng, g, 1+rng.Intn(6), true)) {
			t.Fatalf("graph %d: Update gave up on an acyclic graph", i)
		}
	}
}

// TestUpdateMatchesComputeOnCycles runs arbitrary batches over graphs with
// cycles, self-loops and bisimilar cyclic motifs. Update may give up; when
// it does not, it must be exact. Both outcomes must occur.
func TestUpdateMatchesComputeOnCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	local, gaveUp := 0, 0
	for range 400 {
		g := mixedGraph(rng)
		if checkUpdate(t, g, randomBatch(rng, g, 1+rng.Intn(4), false)) {
			local++
		} else {
			gaveUp++
		}
	}
	if local == 0 || gaveUp == 0 {
		t.Fatalf("local %d, gave up %d: want both", local, gaveUp)
	}
}

// TestUpdateCyclicBlocks pins where Update stops at cycles. An edge
// inside a cycle that copies an existing one onto a block-mate changes no
// signature, so the old result stands. A batch that would move a vertex
// reaching a cycle, or that closes a new cycle, makes it give up, even
// where (as in the second case) the move itself would be right.
func TestUpdateCyclicBlocks(t *testing.T) {
	same := func(l graph.Label) graph.Label { return l }
	update := func(g *graph.Graph, d batch) (*Result, *Result, bool) {
		t.Helper()
		patched, err := graph.Patch(g, d.verts, d.adds, d.removes)
		if err != nil {
			t.Fatal(err)
		}
		old := Compute(g)
		got, _, ok := Update(patched, same, old, changeOf(g, d))
		return old, got, ok
	}
	dict := graph.NewDict()
	a, b, c := dict.Intern("A"), dict.Intern("B"), dict.Intern("C")

	// 0 ⇄ 1 and 2 ⇄ 3, all labelled A: all four are bisimilar.
	g := graph.FromEdges(dict, []graph.Label{a, a, a, a},
		[]graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}, {From: 2, To: 3}, {From: 3, To: 2}})
	if old, got, ok := update(g, batch{adds: []graph.Edge{{From: 0, To: 3}}}); !ok || got != old {
		t.Fatalf("block-preserving edge in a cycle: ok=%v, reused=%v", ok, got == old)
	}

	// 1 has a self-loop; 0 → 1 and 2 → 1, 2 → 3 (a C sink). Removing 2 → 3
	// would move 2 into 0's block, which reaches a cycle.
	g = graph.FromEdges(dict, []graph.Label{a, b, a, c},
		[]graph.Edge{{From: 0, To: 1}, {From: 1, To: 1}, {From: 2, To: 1}, {From: 2, To: 3}})
	if _, _, ok := update(g, batch{removes: []graph.Edge{{From: 2, To: 3}}}); ok {
		t.Fatal("Update moved a vertex that reaches a cycle")
	}

	// A new self-loop on a DAG vertex closes a cycle.
	g = graph.FromEdges(dict, []graph.Label{a, a}, []graph.Edge{{From: 1, To: 0}})
	if _, _, ok := update(g, batch{adds: []graph.Edge{{From: 1, To: 1}}}); ok {
		t.Fatal("Update accepted a batch that closes a cycle")
	}
}

// TestUpdateResortsRelabelledRows pins the renumbering that is not
// monotone on surviving blocks. Vertices 0 and 2 (A sinks) share a block
// that sorts before B's block {1}; the C vertices 3 → {0, 1} and 4 → {2, 1}
// share a block whose summary row is [A, B]. Adding 0 → 1 moves 0, the A
// block's smallest member, into a fresh block, so the A block ({2}) now
// sorts after the B block and the C row maps to [B, A] order: out of
// order, and Update must sort it back. Both forms of an append-only Change
// (nil Prev and the identity spelled out) must equal Compute.
func TestUpdateResortsRelabelledRows(t *testing.T) {
	dict := graph.NewDict()
	a, b, c := dict.Intern("A"), dict.Intern("B"), dict.Intern("C")
	g := graph.FromEdges(dict, []graph.Label{a, b, a, c, c},
		[]graph.Edge{{From: 3, To: 0}, {From: 3, To: 1}, {From: 4, To: 2}, {From: 4, To: 1}})
	d := batch{adds: []graph.Edge{{From: 0, To: 1}}}
	patched, err := graph.Patch(g, d.verts, d.adds, d.removes)
	if err != nil {
		t.Fatal(err)
	}
	old := Compute(g)
	want := Compute(patched)
	if !(old.Block[2] < old.Block[1] && want.Block[2] > want.Block[1]) {
		t.Fatalf("premise: A block %d→%d, B block %d→%d; want the two swapped",
			old.Block[2], want.Block[2], old.Block[1], want.Block[1])
	}
	same := func(l graph.Label) graph.Label { return l }
	for _, ch := range []Change{{Touched: []graph.V{0}}, changeOf(g, d)} {
		got, _, ok := Update(patched, same, old, ch)
		if !ok {
			t.Fatal("Update gave up on an acyclic graph")
		}
		sameResult(t, got, want)
	}
	if !checkUpdate(t, g, d) {
		t.Fatal("Update gave up on an acyclic graph")
	}
}

// FuzzUpdate decodes a small graph (as FuzzCompute does) followed by a
// batch — appended vertex count and labels, then (kind, from, to) triples:
// even kinds add, odd ones remove — and runs checkUpdate on it.
func FuzzUpdate(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 4, 1, 0, 2, 1, 3, 2, 1, 3, 0, 2, 1, 1, 0, 0, 4, 0})
	f.Add([]byte{5, 0, 0, 1, 1, 0, 6, 1, 0, 2, 0, 3, 1, 4, 2, 0, 3, 0, 0, 1, 4, 0, 1, 2, 1})
	f.Add([]byte{3, 0, 0, 0, 3, 0, 1, 1, 2, 2, 0, 0, 0, 1, 0, 1, 2, 1, 0})
	// TestUpdateResortsRelabelledRows: labels A B A C C, edges 3→0 3→1
	// 4→2 4→1, no new vertex, add 0→1.
	f.Add([]byte{4, 0, 1, 0, 2, 2, 4, 3, 0, 3, 1, 4, 2, 4, 1, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			x := int(data[0])
			data = data[1:]
			return x
		}
		b := graph.NewBuilder(nil)
		for _, name := range []string{"A", "B", "C", "D"} {
			b.Dict().Intern(name)
		}
		n := 1 + next()%48
		for range n {
			b.AddVertexLabel(graph.Label(1 + next()%3))
		}
		for m := next() % 96; m > 0; m-- {
			b.AddEdge(graph.V(next()%n), graph.V(next()%n))
		}
		g := b.Build()
		var d batch
		for k := next() % 4; k > 0; k-- {
			d.verts = append(d.verts, graph.Label(1+next()%4))
		}
		total := n + len(d.verts)
		for len(data) >= 3 {
			kind, u, w := next(), graph.V(next()%total), graph.V(next()%total)
			if kind%2 == 0 {
				d.adds = append(d.adds, graph.Edge{From: u, To: w})
			} else {
				d.removes = append(d.removes, graph.Edge{From: u, To: w})
			}
		}
		checkUpdate(t, g, d)
	})
}
