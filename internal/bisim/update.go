package bisim

import (
	"math"
	"slices"

	"bigindex/internal/graph"
)

// NoVertex marks a vertex that has no counterpart in the old graph.
const NoVertex = ^graph.V(0)

// Change describes a graph g′ relative to an older version g.
type Change struct {
	// Prev maps each vertex of g′ to its vertex in g, or NoVertex when it
	// is new. A nil Prev says g′ only appended vertices to g: below g's
	// vertex count each vertex is its own counterpart, and from there on
	// every vertex is new.
	Prev []graph.V
	// Touched lists the vertices of g′ whose label or successor set, read
	// through Prev, may differ from their counterpart's in g. Every new
	// vertex must be listed; a vertex may be listed more than once.
	Touched []graph.V
}

// cyclic is the rank of a block that reaches a cycle.
const cyclic = math.MaxUint32

// Update returns the maximal bisimulation of g, with labels read through
// label, given old, the result of Compute on the older version of g that
// ch describes g against. It re-signs only what the change reaches and
// reports false when it cannot, in which case the caller runs Compute.
//
// Signatures are looked up in old.Summary: in the quotient of a maximal
// bisimulation, block s is the one block whose members sign (label(s),
// Out(s)), since two blocks with one signature could merge. Block IDs
// therefore name signatures, and old IDs keep their meaning in g; a
// signature that is not an old block's gets a fresh ID. The touched
// vertices are re-signed in rank order (sinks first, ranks read off the
// IDs); a vertex whose block changes sends its predecessors to be
// re-signed after it, and the walk stops where blocks stop changing. An
// untouched vertex keeps its old block: its successors kept theirs. On
// the well-founded part this is exact by induction on rank. A vertex that
// reaches a cycle may keep its block, but there is no rank order to
// re-sign it in, so Update gives up when the batch would move such a
// vertex, when a new signature reaches a cycle, or when ranks grow past
// any path length the change could create, which means it closed a new
// cycle.
//
// Blocks are renumbered by smallest member, as Compute does, in one
// first-appearance scan over g's vertices, so the result is identical to
// Compute's whatever order old IDs were in. Renumbering is not monotone on
// the surviving blocks: a block that loses its smallest member, or a fresh
// block whose smallest member is smaller than an old block's, moves past
// its neighbours. Each summary row is its signature mapped through the
// renumbering, re-sorted only where the mapping put it out of order. Past
// the walk the cost is one pass over each array the new layer writes.
//
// When the partition is unchanged Update returns old itself; when only
// new vertices joined old blocks the result shares old.Summary. The
// returned Change describes the new summary against old.Summary, ready to
// drive the layer above.
func Update(g *graph.Graph, label func(graph.Label) graph.Label, old *Result, ch Change) (*Result, Change, bool) {
	u := updater{old: old.Summary, m: old.Summary.NumVertices(), at: map[graph.V]int32{}}
	u.rank = make([]uint32, u.m)
	u.fresh.reset()
	ids, ok := startIDs(g.NumVertices(), old.Block, ch.Prev)
	if !ok {
		return nil, Change{}, false
	}
	for _, v := range ch.Touched {
		b := 0
		if id := ids[v]; id != NoVertex {
			if r := u.rankOf(id); r != cyclic {
				b = int(r)
			}
		}
		u.push(v, b)
	}

	var sig []graph.V
	for b := 0; b < len(u.buckets); b++ {
		for i := 0; i < len(u.buckets[b]); i++ {
			if b > u.maxRank+len(u.at)+1 {
				return nil, Change{}, false // ranks grew past any path: a new cycle
			}
			v := u.buckets[b][i]
			u.at[v] = -1
			// A vertex in a cyclic block may only keep it: it signs at
			// once, since its successors may wait on it, and is signed
			// again if one of them moves.
			cur := ids[v]
			inCycle := cur != NoVertex && u.rankOf(cur) == cyclic
			// Otherwise sign v once every successor is settled: wait for
			// queued ones, and for ranks at or above this bucket.
			sig = sig[:0]
			r, wait, reachesCycle := 0, -1, false
			for _, w := range g.Out(v) {
				id := ids[w]
				if at, ok := u.at[w]; ok && at >= 0 && (!inCycle || id == NoVertex) {
					wait = max(wait, int(at))
					continue
				}
				if id == NoVertex {
					return nil, Change{}, false // an unsigned new vertex on a new cycle
				}
				if rw := u.rankOf(id); rw == cyclic {
					reachesCycle = true
				} else {
					r = max(r, int(rw)+1)
				}
				sig = append(sig, id)
			}
			if wait >= 0 {
				u.push(v, wait+1)
				continue
			}
			if r > b && !inCycle && !reachesCycle {
				u.push(v, r)
				continue
			}
			slices.Sort(sig)
			id := u.intern(uint32(label(g.Label(v))), slices.Compact(sig), r)
			if id == cur {
				continue
			}
			if inCycle || reachesCycle {
				return nil, Change{}, false // the batch moves a vertex that reaches a cycle
			}
			ids[v] = id
			for _, p := range g.In(v) {
				u.push(p, max(r+1, b))
			}
		}
	}

	// Renumber the blocks in use by smallest member; tid inverts it.
	renum := make([]graph.V, u.m+u.fresh.len()) // new ID + 1; 0 = unused
	tid := make([]graph.V, 0, len(renum))
	for v, id := range ids {
		if renum[id] == 0 {
			tid = append(tid, id)
			renum[id] = graph.V(len(tid))
		}
		ids[v] = renum[id] - 1
	}
	same := len(tid) == u.m
	for k, id := range tid {
		same = same && id == graph.V(k)
	}
	if same && slices.Equal(ids, old.Block) {
		return old, Change{}, true
	}

	res := &Result{Summary: u.old, Block: ids, Members: members(ids, len(tid))}
	if !same {
		res.Summary = u.summary(g.Dict(), tid, renum)
	}
	next := Change{Prev: tid}
	for k, id := range tid {
		if int(id) >= u.m {
			tid[k] = NoVertex
			next.Touched = append(next.Touched, graph.V(k))
		}
	}
	return res, next, true
}

// startIDs returns each vertex's old block, or NoVertex for a new one. It
// fails when a nil prev would drop old vertices.
func startIDs(n int, block, prev []graph.V) ([]graph.V, bool) {
	ids := make([]graph.V, n)
	if prev == nil {
		if n < len(block) {
			return nil, false
		}
		for v := copy(ids, block); v < n; v++ {
			ids[v] = NoVertex
		}
		return ids, true
	}
	for v, p := range prev {
		ids[v] = NoVertex
		if p != NoVertex {
			ids[v] = block[p]
		}
	}
	return ids, true
}

// summary writes the quotient graph of the renumbered blocks. A block's
// quotient out-edges are its signature's successor blocks, all in use: a
// vertex's final signature names its successors' final blocks. Each row
// is its signature mapped through renum (new ID + 1), sorted again only if
// the mapping reordered it.
func (u *updater) summary(dict *graph.Dict, tid, renum []graph.V) *graph.Graph {
	edges := 0
	for _, id := range tid {
		edges += len(u.sig(id))
	}
	labels := make([]graph.Label, len(tid))
	outOff := make([]uint32, len(tid)+1)
	outAdj := make([]graph.V, edges)
	at := 0
	for k, id := range tid {
		labels[k] = u.label(id)
		sig := u.sig(id)
		row := outAdj[at : at+len(sig)]
		// Signatures are distinct, so any descent means disorder.
		last, sorted := graph.V(0), true
		for i, b := range sig {
			x := renum[b] - 1
			row[i] = x
			if x < last {
				sorted = false
			}
			last = x
		}
		if !sorted {
			slices.Sort(row)
		}
		at += len(sig)
		outOff[k+1] = uint32(at)
	}
	return graph.FromRows(dict, labels, outOff, outAdj)
}

// updater holds Update's state. Block IDs below m are old.Summary's
// vertices; ID m+i is the i-th fresh signature.
type updater struct {
	old *graph.Graph
	m   int
	// rank[s] for an old block: 0 = not yet known, 1 = being computed,
	// cyclic, or its rank + 2. Ranks are computed on demand, so only the
	// blocks below what the walk reads are visited.
	rank      []uint32
	fresh     table
	freshRank []uint32
	maxRank   int // largest finite rank read so far
	stack     []frame
	// at holds every vertex ever queued: the bucket it waits in, or -1.
	// No path of g through queued vertices and into untouched ones is
	// longer than len(at) + maxRank.
	at      map[graph.V]int32
	buckets [][]graph.V
}

func (u *updater) push(v graph.V, b int) {
	if at, ok := u.at[v]; ok && at >= 0 {
		return
	}
	u.at[v] = int32(b)
	for len(u.buckets) <= b {
		u.buckets = append(u.buckets, nil)
	}
	u.buckets[b] = append(u.buckets[b], v)
}

// rankOf returns block id's height above the sinks (the longest path to
// one), or cyclic when it reaches a cycle: a depth-first search over
// old.Summary that meets a block still being computed has found one. The
// search keeps its own stack, since summaries can be as deep as the data.
func (u *updater) rankOf(id graph.V) uint32 {
	if int(id) >= u.m {
		return u.freshRank[int(id)-u.m]
	}
	if u.rank[id] == 0 {
		u.rank[id] = 1
		stack := append(u.stack[:0], frame{s: id})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := u.old.Out(f.s)
			for ; f.i < len(out) && f.r != cyclic && u.rank[out[f.i]] != 0; f.i++ {
				if rw := rankValue(u.rank[out[f.i]]); rw == cyclic {
					f.r = cyclic
				} else {
					f.r = max(f.r, rw+1)
				}
			}
			if f.i < len(out) && f.r != cyclic {
				u.rank[out[f.i]] = 1
				stack = append(stack, frame{s: out[f.i]})
				continue
			}
			u.rank[f.s] = cyclic
			if f.r != cyclic {
				u.rank[f.s] = f.r + 2
				u.maxRank = max(u.maxRank, int(f.r))
			}
			stack = stack[:len(stack)-1]
		}
		u.stack = stack
	}
	return rankValue(u.rank[id])
}

// frame is one block on rankOf's search stack: its next successor to
// read and the largest rank + 1 read so far.
type frame struct {
	s graph.V
	i int
	r uint32
}

// rankValue decodes a rank entry that is not 0.
func rankValue(r uint32) uint32 {
	if r == 1 || r == cyclic {
		return cyclic
	}
	return r - 2
}

// intern returns the ID of signature (head, sig), creating a fresh one of
// rank r if no block has it. An old block with a non-empty signature is a
// predecessor of each of its successor blocks, so the candidates are the
// old predecessors of the least-preceded one; an old sink is found among
// the old blocks with its label.
func (u *updater) intern(head uint32, sig []graph.V, r int) graph.V {
	if len(sig) == 0 || int(sig[len(sig)-1]) < u.m {
		cands := u.old.VerticesWithLabel(graph.Label(head))
		for _, s := range sig {
			if in := u.old.In(s); len(in) < len(cands) {
				cands = in
			}
		}
		for _, c := range cands {
			if u.old.Label(c) == graph.Label(head) && slices.Equal(u.old.Out(c), sig) {
				return c
			}
		}
	}
	id := graph.V(u.m) + u.fresh.intern(head, sig)
	if int(id)-u.m == len(u.freshRank) {
		u.freshRank = append(u.freshRank, uint32(r))
	}
	return id
}

func (u *updater) label(id graph.V) graph.Label {
	if int(id) < u.m {
		return u.old.Label(id)
	}
	return graph.Label(u.fresh.head[int(id)-u.m])
}

func (u *updater) sig(id graph.V) []graph.V {
	if int(id) < u.m {
		return u.old.Out(id)
	}
	f := int(id) - u.m
	return u.fresh.arena[u.fresh.off[f]:u.fresh.off[f+1]]
}
