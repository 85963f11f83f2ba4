// Package bisim computes the maximal (backward) bisimulation of a labeled
// directed graph and materializes it as a summary graph, implementing the
// Bisim summarization operator of the paper (Sec. 2).
//
// Two vertices are bisimilar iff they carry the same label and their
// out-neighborhoods match block-for-block (the paper's Def. in Sec. 2; its
// running example groups the 100 Person vertices because they share a label
// and a bisimilar child). The unique maximal bisimulation is the coarsest
// partition stable under that condition. Compute finds it in rank order,
// in four steps:
//
//  1. Peel. Kahn's algorithm on out-degree removes sinks first; the
//     vertices it never removes are those that reach a cycle.
//  2. Hash-cons. In peel order every successor of a vertex already has its
//     final block, so the block of the vertex is the table entry for
//     (label, sorted distinct successor blocks): each peeled vertex is
//     signed exactly once. This is the well-founded case that Hellings et
//     al. process in rank order.
//  3. Refine the remainder. The vertices that reach a cycle start from
//     their labels and are re-signed by (block, successor blocks) until the
//     block count stops growing, with the peeled blocks held fixed. A vertex
//     with an infinite path is never bisimilar to one without, so the two
//     parts never share a block (rank stratification in the style of
//     Dovier, Piazza and Policriti).
//  4. Renumber blocks by their smallest member, so the output is a pure
//     function of the graph.
//
// The summary graph Bisim(G) has one supernode per block, labeled with the
// members' common label, and an edge between two supernodes iff some member
// edge connects their blocks — exactly the quotient construction of Sec. 2,
// which is path-preserving (Def. 2.1). Bisim⁻¹ is materialized as the
// Members table (supernode -> member vertices), the hash-table reverse
// mapping the paper prescribes.
package bisim

import (
	"math/bits"
	"slices"

	"bigindex/internal/graph"
)

// Result is the outcome of Compute: the summary graph, the vertex->supernode
// map χ (Block), and the supernode->vertices reverse map χ⁻¹ (Members).
type Result struct {
	// Summary is Bisim(G), the quotient graph.
	Summary *graph.Graph
	// Block maps each vertex of the input graph to its supernode in Summary;
	// Block[v] is the paper's Bisim(v) = [v]_equiv.
	Block []graph.V
	// Members maps each supernode to the member vertices of the input graph,
	// ascending; Members[s] is Bisim⁻¹(s).
	Members [][]graph.V
}

// NumBlocks reports the number of equivalence classes.
func (r *Result) NumBlocks() int { return len(r.Members) }

// CompressionRatio reports |Bisim(G)| / |G| given the original graph size;
// the compress component of the index cost model (Formula 3).
func (r *Result) CompressionRatio(original *graph.Graph) float64 {
	if original.Size() == 0 {
		return 1
	}
	return float64(r.Summary.Size()) / float64(original.Size())
}

// Compute returns the maximal bisimulation of g. Blocks are numbered by
// their smallest member, so Block, Members and Summary are a pure function
// of g.
func Compute(g *graph.Graph) *Result {
	n := g.NumVertices()
	block := make([]graph.V, n)
	var t table
	t.reset()
	var sig []graph.V

	// Peel: Kahn's algorithm on out-degree, sinks first. Every vertex in
	// order comes after all of its successors; a vertex left unpeeled
	// reaches a cycle.
	left := make([]uint32, n)
	order := make([]graph.V, 0, n)
	for v := range n {
		left[v] = uint32(g.OutDegree(graph.V(v)))
		if left[v] == 0 {
			order = append(order, graph.V(v))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, u := range g.In(order[i]) {
			if left[u]--; left[u] == 0 {
				order = append(order, u)
			}
		}
	}

	// Hash-cons the peeled vertices in peel order: each is signed once,
	// after its successors' blocks are final.
	for _, v := range order {
		sig = successorBlocks(g, v, block, sig)
		block[v] = t.intern(uint32(g.Label(v)), sig)
	}
	total := graph.V(t.len())

	// Refine the remainder alone, with the peeled blocks held fixed. A
	// vertex with an infinite path is never bisimilar to one without, so
	// the two parts never share a block.
	if len(order) < n {
		peeled := total
		rest := make([]graph.V, 0, n-len(order))
		for v := range n {
			if left[v] > 0 {
				rest = append(rest, graph.V(v))
			}
		}
		t.reset()
		for _, v := range rest {
			block[v] = peeled + t.intern(uint32(g.Label(v)), nil)
		}
		count := t.len()
		next := make([]graph.V, len(rest))
		for {
			t.reset()
			for i, v := range rest {
				sig = successorBlocks(g, v, block, sig)
				next[i] = peeled + t.intern(uint32(block[v]), sig)
			}
			for i, v := range rest {
				block[v] = next[i]
			}
			// Each round refines the last, so an equal count is a fixpoint.
			if t.len() == count {
				break
			}
			count = t.len()
		}
		total = peeled + graph.V(count)
	}

	// Renumber blocks in order of their smallest member.
	renum := make([]graph.V, total) // new ID + 1; 0 = not yet seen
	numBlocks := graph.V(0)
	for v, b := range block {
		if renum[b] == 0 {
			numBlocks++
			renum[b] = numBlocks
		}
		block[v] = renum[b] - 1
	}
	return buildResult(g, block, int(numBlocks))
}

// successorBlocks returns v's sorted, distinct successor blocks in buf.
func successorBlocks(g *graph.Graph, v graph.V, block, buf []graph.V) []graph.V {
	buf = buf[:0]
	for _, w := range g.Out(v) {
		buf = append(buf, block[w])
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// table hash-conses signatures — a head (a label, or the previous block
// during refinement) plus a sorted successor-block set — to dense IDs in
// first-seen order. It is open-addressed with linear probing; signatures
// live back to back in one arena.
type table struct {
	slots []uint32 // ID + 1; 0 = empty
	shift uint
	hash  []uint64 // per ID
	head  []uint32 // per ID
	off   []uint32 // ID's signature is arena[off[ID]:off[ID+1]]
	arena []graph.V
}

func (t *table) len() int { return len(t.hash) }

func (t *table) reset() {
	clear(t.slots)
	t.hash, t.head, t.off, t.arena = t.hash[:0], t.head[:0], append(t.off[:0], 0), t.arena[:0]
}

// intern returns the ID of (head, sig), adding it if new.
func (t *table) intern(head uint32, sig []graph.V) graph.V {
	// FNV-1 over 32-bit words.
	h := uint64(14695981039346656037)
	h = (h ^ uint64(head)) * 1099511628211
	for _, s := range sig {
		h = (h ^ uint64(s)) * 1099511628211
	}
	if 2*(len(t.hash)+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.slot(h); ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			id := len(t.hash)
			t.slots[i] = uint32(id + 1)
			t.hash = append(t.hash, h)
			t.head = append(t.head, head)
			t.arena = append(t.arena, sig...)
			t.off = append(t.off, uint32(len(t.arena)))
			return graph.V(id)
		}
		id := e - 1
		if t.hash[id] == h && t.head[id] == head && slices.Equal(t.arena[t.off[id]:t.off[id+1]], sig) {
			return graph.V(id)
		}
	}
}

// slot maps a hash to its home slot by Fibonacci hashing, which takes the
// high bits: FNV's low bits depend only on its inputs' low bits.
func (t *table) slot(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> t.shift }

// grow doubles the slot array and re-inserts every ID.
func (t *table) grow() {
	size := max(64, 2*len(t.slots))
	t.slots = make([]uint32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for id, h := range t.hash {
		i := t.slot(h)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(id + 1)
	}
}

// buildResult materializes the quotient graph of a stable partition whose
// blocks are numbered by smallest member.
func buildResult(g *graph.Graph, block []graph.V, numBlocks int) *Result {
	// Members rows are carved from one flat array by a counting sort, so
	// each row is ascending.
	start := make([]uint32, numBlocks+1)
	for _, b := range block {
		start[b+1]++
	}
	for s := range numBlocks {
		start[s+1] += start[s]
	}
	flat := make([]graph.V, len(block))
	fill := slices.Clone(start[:numBlocks])
	for v, b := range block {
		flat[fill[b]] = graph.V(v)
		fill[b]++
	}

	// One quotient edge per distinct (source block, target block): stamp[t]
	// holds the last source block that recorded an edge to t, plus one.
	// Builder.Build sorts the edges.
	members := make([][]graph.V, numBlocks)
	stamp := make([]uint32, numBlocks)
	b := graph.NewBuilder(g.Dict())
	for s := range numBlocks {
		members[s] = flat[start[s]:start[s+1]:start[s+1]]
		// All members share a label by construction; use the first.
		b.AddVertexLabel(g.Label(members[s][0]))
	}
	for s, row := range members {
		for _, v := range row {
			for _, w := range g.Out(v) {
				if t := block[w]; stamp[t] != uint32(s)+1 {
					stamp[t] = uint32(s) + 1
					b.AddEdge(graph.V(s), t)
				}
			}
		}
	}
	return &Result{Summary: b.Build(), Block: block, Members: members}
}
