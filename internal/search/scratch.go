package search

import (
	"slices"
	"sync"

	"bigindex/internal/graph"
)

// Scratch is the dense, reusable state of one rooted search (bkws, bidir,
// Blinks) and of every bounded breadth-first traversal (Ball): per keyword
// a distance row and a level-order queue, a per-vertex root counter,
// and a probe row for the traversals that verify and witness roots, draw
// the cost model's samples and build r-clique's neighbour rows.
//
// Every row entry carries the epoch that wrote it (entry = epoch<<32 |
// value), so starting a new search is one counter increment instead of a
// clear of |V| entries: an entry from an older epoch reads as absent. The
// 32-bit value holds any distance, since no shortest distance exceeds
// |V|−1, so every d_max is exact. When the epoch wraps, the rows are
// cleared once and counting restarts at 1; zeroed entries (epoch 0) are
// therefore never current. The probe row works the same way under its own
// counter, bumped once per traversal.
//
// A Scratch serves one goroutine at a time. GetScratch and PutScratch pool
// them across searches, graphs and algorithms; rows only grow, so a pooled
// Scratch fits the largest graph it has served.
type Scratch struct {
	size   int        // vertices every row covers
	epoch  uint32     // the current search
	dist   [][]uint64 // dist[kw][v] = epoch<<32 | keyword kw's distance at v
	roots  []uint64   // roots[v] = epoch<<32 | keywords that have reached v
	fronts []Frontier // fronts[kw]: keyword kw's expansion
	cands  []graph.V  // the candidate roots of a rooted search

	probe uint32    // the current probe
	seen  []uint64  // seen[v] = probe<<32 | the current probe's distance at v
	order []graph.V // the latest traversal's vertices, in level order
	pdist []int
	pnode []graph.V
	have  []bool
}

// Rule picks the edges a traversal follows.
type Rule uint8

const (
	// Out follows out-edges: what a root reaches (rooted verification, the
	// cost model's samples).
	Out Rule = iota
	// In follows in-edges: which vertices reach the sources (backward
	// keyword expansion, Algo 4's shared traversal).
	In
	// Both follows out-edges then in-edges: the undirected skeleton of
	// r-clique's distance constraint.
	Both
)

// Frontier is one keyword's level-order expansion. Reached holds every
// vertex the keyword has reached, in the order reached, so once the queue
// is exhausted it is the keyword's whole ball; the queue itself is two
// ranges of it, Cur (vertices at distance Level not yet taken) and Next
// (those discovered at Level+1). A fresh Frontier is at level -1: its
// sources are pushed as Next and made current by Advance. Its buffer
// belongs to the Scratch that handed it out and is reused by later
// searches.
type Frontier struct {
	Level   int
	Reached []graph.V
	lo, hi  int  // Cur is Reached[lo:hi]
	mark    int  // Reached[mark:] is Next
	closed  bool // the exhausted queue's ball has been taken (rooted search)
}

// Cur returns the vertices at distance Level still queued.
func (f *Frontier) Cur() []graph.V { return f.Reached[f.lo:f.hi] }

// Queued returns how many vertices the queue holds, len(Cur) plus those
// discovered at Level+1.
func (f *Frontier) Queued() int { return f.hi - f.lo + len(f.Reached) - f.mark }

// Push queues v at distance Level+1.
func (f *Frontier) Push(v graph.V) { f.Reached = append(f.Reached, v) }

// Pop takes the last vertex of Cur.
func (f *Frontier) Pop() graph.V {
	f.hi--
	return f.Reached[f.hi]
}

// Advance makes Next the current level.
func (f *Frontier) Advance() {
	f.lo, f.hi, f.mark = f.mark, len(f.Reached), len(f.Reached)
	f.Level++
}

var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// testEpoch, when non-zero, is the epoch (and probe count) GetScratch sets
// on every Scratch before starting its search; tests set math.MaxUint32 so
// that every search and probe crosses the wrap.
var testEpoch uint32

// GetScratch returns a pooled Scratch for a search over a graph of n
// vertices with kw keyword rows, all empty. Return it with PutScratch.
func GetScratch(n, kw int) *Scratch {
	s := scratches.Get().(*Scratch)
	if n > s.size { // regrow every row; fresh rows read as absent
		s.size = n
		s.dist, s.roots, s.seen = nil, nil, nil
	}
	for len(s.dist) < kw {
		s.dist = append(s.dist, make([]uint64, s.size))
	}
	for len(s.fronts) < kw {
		s.fronts = append(s.fronts, Frontier{})
	}
	if s.roots == nil {
		s.roots = make([]uint64, s.size)
		s.seen = make([]uint64, s.size)
	}
	if testEpoch != 0 {
		s.epoch, s.probe = testEpoch, testEpoch
	}
	s.epoch++
	if s.epoch == 0 {
		for _, row := range s.dist {
			clear(row)
		}
		clear(s.roots)
		s.epoch = 1
	}
	for i := range s.fronts[:kw] {
		f := &s.fronts[i]
		*f = Frontier{Level: -1, Reached: f.Reached[:0]}
	}
	return s
}

// PutScratch returns s to the pool; s must not be used afterwards.
func PutScratch(s *Scratch) { scratches.Put(s) }

// Reach records d as keyword kw's distance at v unless this search already
// recorded one, and reports whether it did. Level-order callers reach each
// vertex first at its minimum distance.
func (s *Scratch) Reach(kw int, v graph.V, d int) bool {
	row := s.dist[kw]
	if uint32(row[v]>>32) == s.epoch {
		return false
	}
	row[v] = uint64(s.epoch)<<32 | uint64(uint32(d))
	return true
}

// Dist returns keyword kw's recorded distance at v, if this search has
// one.
func (s *Scratch) Dist(kw int, v graph.V) (int, bool) {
	e := s.dist[kw][v]
	return int(uint32(e)), uint32(e>>32) == s.epoch
}

// CountRoot counts one more keyword reaching v and returns how many have:
// v is an answer root once the count equals the number of keywords.
func (s *Scratch) CountRoot(v graph.V) int {
	e := s.roots[v]
	c := uint32(1)
	if uint32(e>>32) == s.epoch {
		c += uint32(e)
	}
	s.roots[v] = uint64(s.epoch)<<32 | uint64(c)
	return int(c)
}

// RootCount returns how many keywords have reached v in this search.
func (s *Scratch) RootCount(v graph.V) int {
	e := s.roots[v]
	if uint32(e>>32) != s.epoch {
		return 0
	}
	return int(uint32(e))
}

// Dists returns v's recorded distance for each of the first n keywords
// (-1 where none is recorded).
func (s *Scratch) Dists(v graph.V, n int) []int {
	out := make([]int, n)
	for i := range out {
		d, ok := s.Dist(i, v)
		if !ok {
			d = -1
		}
		out[i] = d
	}
	return out
}

// NewVisit starts a new visited set on the probe row: every vertex reads
// unvisited. Every Ball and probe starts one; callers outside the package
// use it to deduplicate vertex lists without a map.
func (s *Scratch) NewVisit() {
	s.probe++
	if s.probe == 0 {
		clear(s.seen)
		s.probe = 1
	}
}

// Visit marks v visited in the current visited set and reports whether it
// was new.
func (s *Scratch) Visit(v graph.V) bool {
	if uint32(s.seen[v]>>32) == s.probe {
		return false
	}
	s.seen[v] = uint64(s.probe) << 32
	return true
}

// Ball runs one bounded breadth-first traversal on the probe row: from
// sources (distance 0, duplicates once) along rule, up to limit hops
// (limit < 0: unbounded). It returns the vertices reached, in level order
// and, within a level, in discovery order; BallDist reads their
// distances. The slice belongs to s and is overwritten by the next Ball or
// probe.
func (s *Scratch) Ball(g *graph.Graph, sources []graph.V, limit int, rule Rule) []graph.V {
	s.NewVisit()
	return s.traverse(g, s.seen, s.probe, sources, limit, rule, nil)
}

// BallDist returns v's distance in the latest Ball, if it reached v.
func (s *Scratch) BallDist(v graph.V) (int, bool) {
	e := s.seen[v]
	return int(uint32(e)), uint32(e>>32) == s.probe
}

// KeywordBall is Ball recorded on keyword kw's row of the current search
// instead of the probe row, so Dist(kw, ·) answers it and probes may run
// meanwhile. Each keyword row takes one KeywordBall per search.
func (s *Scratch) KeywordBall(g *graph.Graph, kw int, sources []graph.V, limit int, rule Rule) []graph.V {
	return s.traverse(g, s.dist[kw], s.epoch, sources, limit, rule, nil)
}

// traverse is the one bounded breadth-first traversal: it stamps each
// vertex reached into row as stamp<<32 | distance, the first time it is
// reached, and returns the reached vertices in level order. When level is
// non-nil it is called with each completed level and its distance before
// that level is expanded; false stops the traversal there.
func (s *Scratch) traverse(g *graph.Graph, row []uint64, stamp uint32, sources []graph.V, limit int, rule Rule, level func(vs []graph.V, d int) bool) []graph.V {
	order := s.order[:0]
	mark := uint64(stamp) << 32
	for _, v := range sources {
		if uint32(row[v]>>32) != stamp {
			row[v] = mark
			order = append(order, v)
		}
	}
	for lo, d := 0, 0; lo < len(order); d++ {
		hi := len(order)
		if level != nil && !level(order[lo:hi], d) || d == limit {
			break
		}
		next := mark | uint64(uint32(d+1))
		for _, v := range order[lo:hi] {
			if rule != In {
				for _, w := range g.Out(v) {
					if uint32(row[w]>>32) != stamp {
						row[w] = next
						order = append(order, w)
					}
				}
			}
			if rule != Out {
				for _, w := range g.In(v) {
					if uint32(row[w]>>32) != stamp {
						row[w] = next
						order = append(order, w)
					}
				}
			}
		}
		lo = hi
	}
	s.order = order
	return order
}

// probeFrom runs a forward traversal from root on the probe row, calling
// level as traverse does.
func (s *Scratch) probeFrom(g *graph.Graph, root graph.V, limit int, level func(vs []graph.V, d int) bool) {
	s.NewVisit()
	s.traverse(g, s.seen, s.probe, []graph.V{root}, limit, Out, level)
}

// MinDistToLabels performs one bounded forward traversal from root and
// returns, for each of the requested labels, the minimum hop distance and
// the smallest-ID vertex realizing it. ok is false if some label is
// unreachable within limit. The traversal stops once every label has been
// seen at its minimum distance (all vertices at the current level
// processed). The returned slices belong to s and are overwritten by its
// next probe.
//
// The deterministic smallest-ID tie-break is what makes direct evaluation
// and index-backed regeneration produce byte-identical matches.
func (s *Scratch) MinDistToLabels(g *graph.Graph, root graph.V, labels []graph.Label, limit int) (dists []int, nodes []graph.V, ok bool) {
	dists = s.pdist[:0]
	nodes = s.pnode[:0]
	for range labels {
		dists = append(dists, -1)
		nodes = append(nodes, 0)
	}
	s.pdist, s.pnode = dists, nodes
	remaining := len(labels)
	// Level-order, so every vertex at the minimal distance is recorded
	// before stopping (the smallest-ID tie-break needs the whole level).
	s.probeFrom(g, root, limit, func(vs []graph.V, d int) bool {
		for _, v := range vs {
			lv := g.Label(v)
			for i, l := range labels {
				if l != lv {
					continue
				}
				if dists[i] == -1 {
					dists[i], nodes[i] = d, v
					remaining--
				} else if dists[i] == d && v < nodes[i] {
					nodes[i] = v
				}
			}
		}
		return remaining > 0
	})
	return dists, nodes, remaining == 0
}

// RootMatch verifies r as an answer root by one forward probe: the match
// with the labels' minimum distances within limit and their smallest-ID
// witnesses, scored by SumDistances, or false if some label is out of
// reach.
func (s *Scratch) RootMatch(g *graph.Graph, r graph.V, labels []graph.Label, limit int) (Match, bool) {
	dists, nodes, ok := s.MinDistToLabels(g, r, labels, limit)
	if !ok {
		return Match{}, false
	}
	dists = slices.Clone(dists)
	return Match{Root: r, Nodes: slices.Clone(nodes), Dists: dists, Score: SumDistances(dists)}, true
}

// WitnessNodes picks, for each keyword, the smallest-ID vertex of that
// label at the given minimum distance from root, via one level-order
// traversal. The deterministic tie-break keeps matches comparable across
// evaluation strategies.
func (s *Scratch) WitnessNodes(g *graph.Graph, root graph.V, q []graph.Label, dists []int) []graph.V {
	maxD := 0
	for _, d := range dists {
		maxD = max(maxD, d)
	}
	nodes := make([]graph.V, len(q))
	have := s.have[:0]
	for range q {
		have = append(have, false)
	}
	s.have = have
	s.probeFrom(g, root, maxD, func(vs []graph.V, d int) bool {
		for _, v := range vs {
			lv := g.Label(v)
			for i, l := range q {
				if dists[i] == d && lv == l && (!have[i] || v < nodes[i]) {
					nodes[i], have[i] = v, true
				}
			}
		}
		return true
	})
	return nodes
}
