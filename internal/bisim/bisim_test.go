package bisim

import (
	"encoding/binary"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bigindex/internal/datagen"
	"bigindex/internal/graph"
)

// refineReference is the whole-graph signature refinement (Kanellakis-
// Smolka style) that Compute replaces: start from the label partition and
// re-sign every vertex each round by (block, sorted distinct successor
// blocks) until the block count stops growing. Blocks come out numbered
// by first appearance in vertex order, i.e. by smallest member, and the
// quotient edges are collected through a map. Reference for Compute's
// exact output.
func refineReference(g *graph.Graph) (block []graph.V, labels []graph.Label, edges []graph.Edge) {
	n := g.NumVertices()
	block = make([]graph.V, n)
	next := graph.V(0)
	byLabel := make(map[graph.Label]graph.V)
	for v := 0; v < n; v++ {
		l := g.Label(graph.V(v))
		id, ok := byLabel[l]
		if !ok {
			id = next
			next++
			byLabel[l] = id
		}
		block[v] = id
	}

	numBlocks := int(next)
	seed := maphash.MakeSeed()
	var sig []graph.V
	for {
		assign := make(map[uint64][]graph.V) // hash -> candidate new blocks
		newBlock := make([]graph.V, n)
		var sigOf [][]graph.V
		var sigOwner []graph.V // old block of each new block
		for v := 0; v < n; v++ {
			sig = sig[:0]
			for _, w := range g.Out(graph.V(v)) {
				sig = append(sig, block[w])
			}
			slices.Sort(sig)
			sig = slices.Compact(sig)

			key := hashSig(seed, block[v], sig)
			id, found := graph.V(0), false
			for _, cand := range assign[key] {
				if sigOwner[cand] == block[v] && slices.Equal(sigOf[cand], sig) {
					id, found = cand, true
					break
				}
			}
			if !found {
				id = graph.V(len(sigOf))
				sigOf = append(sigOf, slices.Clone(sig))
				sigOwner = append(sigOwner, block[v])
				assign[key] = append(assign[key], id)
			}
			newBlock[v] = id
		}
		if len(sigOf) == numBlocks {
			break // fixpoint: the partition is stable
		}
		numBlocks = len(sigOf)
		block = newBlock
	}

	labels = make([]graph.Label, numBlocks)
	for v := n - 1; v >= 0; v-- {
		labels[block[v]] = g.Label(graph.V(v))
	}
	seen := make(map[graph.Edge]bool)
	for _, e := range g.Edges() {
		q := graph.Edge{From: block[e.From], To: block[e.To]}
		if !seen[q] {
			seen[q] = true
			edges = append(edges, q)
		}
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if a.From != b.From {
			return int(a.From) - int(b.From)
		}
		return int(a.To) - int(b.To)
	})
	return block, labels, edges
}

func hashSig(seed maphash.Seed, owner graph.V, sig []graph.V) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(owner))
	h.Write(buf[:])
	for _, s := range sig {
		binary.LittleEndian.PutUint32(buf[:], uint32(s))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// checkAgainstReference fails t unless Compute(g) is exactly
// refineReference(g): the same Block slice, the same summary labels and
// the same summary edges, not merely the same partition up to renaming.
func checkAgainstReference(t testing.TB, g *graph.Graph) {
	t.Helper()
	res := Compute(g)
	block, labels, edges := refineReference(g)
	if !slices.Equal(res.Block, block) {
		t.Fatalf("Block = %v, reference %v\nedges %v", res.Block, block, g.Edges())
	}
	if !slices.Equal(res.Summary.Labels(), labels) {
		t.Fatalf("summary labels = %v, reference %v", res.Summary.Labels(), labels)
	}
	if got := res.Summary.Edges(); !slices.Equal(got, edges) {
		t.Fatalf("summary edges = %v, reference %v", got, edges)
	}
	for s, row := range res.Members {
		for i, v := range row {
			if block[v] != graph.V(s) || (i > 0 && row[i-1] >= v) {
				t.Fatalf("Members[%d] = %v is not block %d ascending", s, row, s)
			}
		}
	}
}

// mixedGraph draws a random graph that has every shape the engine
// separates: an acyclic lower region whose edges only point down (to
// smaller IDs); a cyclic upper region with reciprocal pairs and self-loops;
// vertices that reach a cycle without lying on one; and copies of one
// cyclic motif in separate components, which are bisimilar to each other.
func mixedGraph(rng *rand.Rand) *graph.Graph {
	labels := 1 + rng.Intn(3)
	dag := 1 + rng.Intn(30)
	cyc := rng.Intn(20)
	above := rng.Intn(10)
	motif := 1 + rng.Intn(4)
	copies := rng.Intn(4)

	b := graph.NewBuilder(nil)
	ls := make([]graph.Label, labels)
	for i := range ls {
		ls[i] = b.Dict().Intern(string(rune('A' + i)))
	}
	for v := 0; v < dag+cyc+above; v++ {
		b.AddVertexLabel(ls[rng.Intn(labels)])
	}
	for v := 1; v < dag; v++ {
		for range rng.Intn(3) {
			b.AddEdge(graph.V(v), graph.V(rng.Intn(v)))
		}
	}
	for v := dag; v < dag+cyc; v++ {
		u := graph.V(dag + rng.Intn(cyc))
		b.AddEdge(graph.V(v), u)
		if rng.Intn(3) == 0 {
			b.AddEdge(u, graph.V(v)) // reciprocal pair
		}
		if rng.Intn(5) == 0 {
			b.AddEdge(graph.V(v), graph.V(v)) // self-loop
		}
		if rng.Intn(2) == 0 {
			b.AddEdge(graph.V(v), graph.V(rng.Intn(dag)))
		}
	}
	for v := dag + cyc; v < dag+cyc+above; v++ {
		// Above a cycle (when there is one) and possibly the DAG, never on
		// a cycle: edges only point to smaller IDs.
		for range 1 + rng.Intn(2) {
			b.AddEdge(graph.V(v), graph.V(rng.Intn(v)))
		}
	}
	// A cyclic motif repeated in separate components.
	ml := make([]graph.Label, motif)
	for i := range ml {
		ml[i] = ls[rng.Intn(labels)]
	}
	var medges []graph.Edge
	for i := range motif {
		medges = append(medges, graph.Edge{From: graph.V(i), To: graph.V((i + 1) % motif)})
		if rng.Intn(2) == 0 {
			medges = append(medges, graph.Edge{From: graph.V(i), To: graph.V(rng.Intn(motif))})
		}
	}
	for c := range copies {
		base := graph.V(dag + cyc + above + c*motif)
		for _, l := range ml {
			b.AddVertexLabel(l)
		}
		for _, e := range medges {
			b.AddEdge(base+e.From, base+e.To)
		}
	}
	return b.Build()
}

func TestComputeMatchesReferenceExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for range 300 {
		checkAgainstReference(t, mixedGraph(rng))
	}
	for range 100 {
		n := 1 + rng.Intn(40)
		checkAgainstReference(t, randomGraph(rng, n, rng.Intn(4*n), 1+rng.Intn(4)))
	}
}

// TestComputeMatchesReferenceOnDatagen runs the exact comparison on a small
// graph shaped like the benchmark's, generalized one ontology step as a
// first index layer is, with ~10 % of its edges given a reciprocal edge so
// that part of it reaches a cycle.
func TestComputeMatchesReferenceOnDatagen(t *testing.T) {
	ds := datagen.Generate(datagen.Options{
		Name: "bench", Entities: 3000, AvgOut: 2.0, Terms: 300, LeafTypes: 40,
		TypeBranching: 4, TypeHeight: 6, Relations: 60, TermSkew: 1.5, TargetSkew: 2,
		SinkFraction: 0.35, Seed: 7001,
	})
	gen := func(g *graph.Graph) *graph.Graph {
		return g.Relabel(func(l graph.Label) graph.Label {
			if sup := ds.Ont.DirectSupertypes(l); len(sup) > 0 {
				return sup[0]
			}
			return l
		})
	}
	rng := rand.New(rand.NewSource(32))
	b := graph.NewBuilder(ds.Graph.Dict())
	for _, l := range ds.Graph.Labels() {
		b.AddVertexLabel(l)
	}
	for _, e := range ds.Graph.Edges() {
		b.AddEdge(e.From, e.To)
		if rng.Intn(10) == 0 {
			b.AddEdge(e.To, e.From)
		}
	}
	recip := b.Build()
	for _, g := range []*graph.Graph{ds.Graph, gen(ds.Graph), recip, gen(recip)} {
		checkAgainstReference(t, g)
	}
}

// FuzzCompute decodes the input into a small labelled graph — the first
// byte picks the vertex count (≤ 64), the next ones labels, the rest edges
// as (from, to) byte pairs — and requires Compute to equal the reference.
func FuzzCompute(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 1, 1, 0, 2, 2})
	f.Add([]byte{4, 0, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{6, 0, 0, 1, 1, 2, 2, 0, 1, 1, 0, 2, 3, 3, 2, 4, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		data = data[1:]
		b := graph.NewBuilder(nil)
		ls := []graph.Label{b.Dict().Intern("A"), b.Dict().Intern("B"), b.Dict().Intern("C")}
		for v := range n {
			l := 0
			if v < len(data) {
				l = int(data[v]) % len(ls)
			}
			b.AddVertexLabel(ls[l])
		}
		data = data[min(n, len(data)):]
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(graph.V(int(data[i])%n), graph.V(int(data[i+1])%n))
		}
		checkAgainstReference(t, b.Build())
	})
}

// naiveBisim computes the maximal bisimulation by the O(n²·m) textbook
// fixpoint over vertex pairs: start with all same-label pairs related, and
// remove a pair (u, v) when some out-edge of u has no matching out-edge of
// v into a still-related pair (or vice versa). Reference for Compute.
func naiveBisim(g *graph.Graph) [][]bool {
	n := g.NumVertices()
	rel := make([][]bool, n)
	for i := range rel {
		rel[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			rel[i][j] = g.Label(graph.V(i)) == g.Label(graph.V(j))
		}
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if !rel[u][v] {
					continue
				}
				if !simulates(g, graph.V(u), graph.V(v), rel) || !simulates(g, graph.V(v), graph.V(u), rel) {
					rel[u][v] = false
					changed = true
				}
			}
		}
	}
	return rel
}

// simulates reports whether every out-edge of u can be matched by an
// out-edge of v into a related target.
func simulates(g *graph.Graph, u, v graph.V, rel [][]bool) bool {
	for _, uw := range g.Out(u) {
		ok := false
		for _, vw := range g.Out(v) {
			if rel[uw][vw] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func randomGraph(rng *rand.Rand, n, e, labels int) *graph.Graph {
	b := graph.NewBuilder(nil)
	ls := make([]graph.Label, labels)
	for i := range ls {
		ls[i] = b.Dict().Intern(string(rune('A' + i)))
	}
	for i := 0; i < n; i++ {
		b.AddVertexLabel(ls[rng.Intn(labels)])
	}
	for i := 0; i < e; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	return b.Build()
}

func TestComputeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(14)
		g := randomGraph(rng, n, rng.Intn(3*n), 1+rng.Intn(3))
		res := Compute(g)
		rel := naiveBisim(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				got := res.Block[u] == res.Block[v]
				want := rel[u][v]
				if got != want {
					t.Fatalf("trial %d: bisimilar(%d,%d) = %v, naive = %v\n%v", trial, u, v, got, want, g.Edges())
				}
			}
		}
	}
}

func TestHundredPersonsExample(t *testing.T) {
	// The running example of the paper (Fig. 3/4): 100 Person vertices all
	// pointing at the same Univ vertex collapse into one supernode.
	b := graph.NewBuilder(nil)
	person := b.Dict().Intern("Person")
	univ := b.Dict().Intern("Univ")
	u := b.AddVertexLabel(univ)
	for i := 0; i < 100; i++ {
		p := b.AddVertexLabel(person)
		b.AddEdge(p, u)
	}
	g := b.Build()
	res := Compute(g)
	if res.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2 (Person*, Univ)", res.NumBlocks())
	}
	if res.Summary.NumVertices() != 2 || res.Summary.NumEdges() != 1 {
		t.Fatalf("summary = %v", res.Summary)
	}
	if got := res.CompressionRatio(g); got >= 0.05 {
		t.Fatalf("compression ratio %v, want tiny", got)
	}
}

func TestMembersPartitionVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 50, 120, 4)
	res := Compute(g)
	seen := make(map[graph.V]int)
	for s, members := range res.Members {
		for _, v := range members {
			seen[v]++
			if res.Block[v] != graph.V(s) {
				t.Fatalf("Members/Block disagree for %d", v)
			}
		}
	}
	if len(seen) != g.NumVertices() {
		t.Fatalf("Members cover %d vertices, want %d", len(seen), g.NumVertices())
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("vertex %d in %d blocks", v, c)
		}
	}
}

func TestSummaryLabelsMatchMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 40, 100, 3)
	res := Compute(g)
	for s, members := range res.Members {
		for _, v := range members {
			if g.Label(v) != res.Summary.Label(graph.V(s)) {
				t.Fatalf("block %d mixes labels", s)
			}
		}
	}
}

// TestPathPreserving is the Def. 2.1 property: every edge (hence path) of G
// maps to an edge of Bisim(G).
func TestPathPreserving(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(4*n), 1+rng.Intn(4))
		res := Compute(g)
		for _, e := range g.Edges() {
			if !res.Summary.HasEdge(res.Block[e.From], res.Block[e.To]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryEdgesAreWitnessed is the converse soundness property: every
// summary edge comes from at least one member edge.
func TestSummaryEdgesAreWitnessed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(4*n), 1+rng.Intn(4))
		res := Compute(g)
		for _, e := range res.Summary.Edges() {
			witnessed := false
			for _, u := range res.Members[e.From] {
				for _, w := range g.Out(u) {
					if res.Block[w] == e.To {
						witnessed = true
						break
					}
				}
				if witnessed {
					break
				}
			}
			if !witnessed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFixpointStable: summarizing a summary with fresh labels per block is
// idempotent in size terms — Compute(G) applied to its own summary cannot
// shrink further (maximality of the partition it returns).
func TestFixpointStable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(3*n), 1+rng.Intn(3))
		res := Compute(g)
		// Supernodes with equal labels can still be bisimilar *to each
		// other* in the summary graph only if they were not maximal blocks.
		res2 := Compute(res.Summary)
		if res2.NumBlocks() != res.Summary.NumVertices() {
			t.Fatalf("summary of a maximal summary collapsed further: %d -> %d",
				res.Summary.NumVertices(), res2.NumBlocks())
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(nil).Build()
	res := Compute(g)
	if res.NumBlocks() != 0 || res.Summary.NumVertices() != 0 {
		t.Fatalf("empty graph mishandled: %+v", res)
	}
	if r := res.CompressionRatio(g); r != 1 {
		t.Fatalf("empty compression ratio = %v, want 1", r)
	}
}

func TestSelfLoopAndCycle(t *testing.T) {
	b := graph.NewBuilder(nil)
	l := b.Dict().Intern("X")
	// Two vertices in a 2-cycle and one with a self loop: all same label.
	// Self-loop vertex is bisimilar to cycle vertices (all see block X).
	v0 := b.AddVertexLabel(l)
	v1 := b.AddVertexLabel(l)
	v2 := b.AddVertexLabel(l)
	b.AddEdge(v0, v1)
	b.AddEdge(v1, v0)
	b.AddEdge(v2, v2)
	g := b.Build()
	res := Compute(g)
	if res.NumBlocks() != 1 {
		t.Fatalf("NumBlocks = %d, want 1 (cycle ≡ self-loop)", res.NumBlocks())
	}
	if !res.Summary.HasEdge(0, 0) {
		t.Fatal("summary should have a self loop")
	}
}
