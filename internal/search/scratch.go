package search

import (
	"slices"
	"sync"

	"bigindex/internal/graph"
)

// Scratch is the dense, reusable state of one rooted search (bkws, bidir,
// Blinks) and of the forward probes that verify and witness its roots:
// per keyword a distance row and a pair of level buffers, a per-vertex
// root counter, and a visited row for forward probes.
//
// Every row entry carries the epoch that wrote it (entry = epoch<<32 |
// value), so starting a new search is one counter increment instead of a
// clear of |V| entries: an entry from an older epoch reads as absent. The
// 32-bit value holds any distance, since no shortest distance exceeds
// |V|−1, so every d_max is exact. When the epoch wraps, the rows are
// cleared once and counting restarts at 1; zeroed entries (epoch 0) are
// therefore never current.
//
// A Scratch serves one goroutine at a time. GetScratch and PutScratch pool
// them across searches, graphs and algorithms; rows only grow, so a pooled
// Scratch fits the largest graph it has served.
type Scratch struct {
	size   int        // vertices every row covers
	epoch  uint32     // the current search
	dist   [][]uint64 // dist[kw][v] = epoch<<32 | keyword kw's distance at v
	roots  []uint64   // roots[v] = epoch<<32 | keywords that have reached v
	fronts []Frontier // fronts[kw]: keyword kw's level buffers

	probe       uint32   // the current forward probe
	seen        []uint32 // seen[v] == probe: the current probe visited v
	level, next []graph.V
	pdist       []int
	pnode       []graph.V
	have        []bool
}

// Frontier is one keyword's level-order expansion: Cur holds vertices at
// distance Level, Next collects those discovered at Level+1. Its buffers
// belong to the Scratch that handed it out and are reused by later
// searches.
type Frontier struct {
	Level     int
	Cur, Next []graph.V
}

// Advance makes Next the current level.
func (f *Frontier) Advance() {
	f.Cur, f.Next = f.Next, f.Cur[:0]
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
		s.seen = make([]uint32, s.size)
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
		f.Level, f.Cur, f.Next = 0, f.Cur[:0], f.Next[:0]
	}
	return s
}

// PutScratch returns s to the pool; s must not be used afterwards.
func PutScratch(s *Scratch) { scratches.Put(s) }

// Frontier returns keyword kw's level buffers, empty at level 0 when the
// search starts.
func (s *Scratch) Frontier(kw int) *Frontier { return &s.fronts[kw] }

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
// unvisited. Forward probes start one each; callers outside the package
// use it to deduplicate vertex lists without a map.
func (s *Scratch) NewVisit() {
	s.probe++
	if s.probe == 0 {
		clear(s.seen)
		s.probe = 1
	}
}

// beginProbe starts a forward probe with only root visited.
func (s *Scratch) beginProbe(root graph.V) {
	s.NewVisit()
	s.seen[root] = s.probe
}

// Visit marks v visited in the current visited set and reports whether it
// was new.
func (s *Scratch) Visit(v graph.V) bool {
	if s.seen[v] == s.probe {
		return false
	}
	s.seen[v] = s.probe
	return true
}

// expand fills next with the unvisited out-neighbours of level.
func (s *Scratch) expand(g *graph.Graph, level, next []graph.V) []graph.V {
	next = next[:0]
	for _, v := range level {
		for _, w := range g.Out(v) {
			if s.Visit(w) {
				next = append(next, w)
			}
		}
	}
	return next
}

// MinDistToLabels is the package-level MinDistToLabels on s's visited row.
// The returned slices belong to s and are overwritten by its next probe.
func (s *Scratch) MinDistToLabels(g *graph.Graph, root graph.V, labels []graph.Label, limit int) (dists []int, nodes []graph.V, ok bool) {
	dists = s.pdist[:0]
	nodes = s.pnode[:0]
	for range labels {
		dists = append(dists, -1)
		nodes = append(nodes, 0)
	}
	s.pdist, s.pnode = dists, nodes
	remaining := len(labels)
	record := func(v graph.V, d int) {
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

	// Level-order, so every vertex at the minimal distance is recorded
	// before stopping (the smallest-ID tie-break needs the whole level).
	s.beginProbe(root)
	record(root, 0)
	level, next := append(s.level[:0], root), s.next
	for d := 0; len(level) > 0 && remaining > 0 && (limit < 0 || d < limit); d++ {
		next = s.expand(g, level, next)
		for _, w := range next {
			record(w, d+1)
		}
		level, next = next, level
	}
	s.level, s.next = level, next
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

// WitnessNodes is the package-level WitnessNodes on s's visited row.
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
	s.beginProbe(root)
	level, next := append(s.level[:0], root), s.next
	for d := 0; ; d++ {
		for _, v := range level {
			lv := g.Label(v)
			for i, l := range q {
				if dists[i] == d && lv == l && (!have[i] || v < nodes[i]) {
					nodes[i], have[i] = v, true
				}
			}
		}
		if d >= maxD {
			break
		}
		next = s.expand(g, level, next)
		level, next = next, level
	}
	s.level, s.next = level, next
	return nodes
}

// Witness fills in the witness nodes of every match in ms, all rooted in
// g, for the keywords q.
func (s *Scratch) Witness(g *graph.Graph, q []graph.Label, ms []Match) {
	for i := range ms {
		ms[i].Nodes = s.WitnessNodes(g, ms[i].Root, q, ms[i].Dists)
	}
}
