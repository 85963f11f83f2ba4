// Package rclique implements the distance-based keyword search of Kargar &
// An (PVLDB'11), the dkws semantics of Sec. 5.2: an answer is one node per
// query keyword such that every pair of chosen nodes is within r hops
// (undirected), scored by the total pairwise distance.
//
// Like the original, the package builds a neighbor index — for every vertex,
// the vertices within R hops with their distances — whose O(n·m) footprint
// is the scalability weakness the paper demonstrates on IMDB (a 16 TB
// estimate); MaxEntries reproduces that failure mode by refusing to build
// oversized indexes. Top-k search uses the center-based 2-approximation plus
// Lawler-style search-space decomposition; exhaustive search (k <= 0)
// enumerates every feasible tuple and is exact (used by the framework's
// correctness guarantees and tests).
package rclique

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
)

// Options configures the r-clique instance.
type Options struct {
	// R is the pairwise distance bound (the paper's experiments use R = 4).
	R int
	// MaxEntries caps the neighbor index size (total (vertex, neighbor)
	// pairs); 0 means unlimited. Prepare returns ErrIndexTooLarge beyond it.
	MaxEntries int
}

// ErrIndexTooLarge is returned by Prepare when the neighbor index would
// exceed Options.MaxEntries — the IMDB failure mode of Exp-1.
var ErrIndexTooLarge = fmt.Errorf("rclique: neighbor index exceeds the configured size cap")

// Algorithm is the r-clique plug-in.
type Algorithm struct {
	opt Options
}

// New returns an r-clique instance with pairwise bound r.
func New(r int) *Algorithm { return NewWithOptions(Options{R: r}) }

// NewWithOptions returns an r-clique instance with full options.
func NewWithOptions(opt Options) *Algorithm {
	if opt.R < 1 {
		opt.R = 1
	}
	return &Algorithm{opt: opt}
}

// Name implements search.Algorithm.
func (a *Algorithm) Name() string { return "rclique" }

// R returns the configured distance bound.
func (a *Algorithm) R() int { return a.opt.R }

// Rootless implements search.Rootless: r-clique answers are node sets with
// no distinguished root.
func (a *Algorithm) Rootless() bool { return true }

// nbrEntry is one neighbor-index entry: w is within d undirected hops.
type nbrEntry struct {
	w graph.V
	d int
}

// nbrRow is one vertex's neighbor-index row: every other vertex within R
// undirected hops, sorted by ID.
type nbrRow []nbrEntry

// neighbors builds v's row from one bounded undirected traversal on s.
func neighbors(s *search.Scratch, g *graph.Graph, v graph.V, r int) nbrRow {
	ball := s.Ball(g, []graph.V{v}, r, search.Both)
	row := make(nbrRow, 0, len(ball)-1)
	for _, w := range ball[1:] {
		d, _ := s.BallDist(w)
		row = append(row, nbrEntry{w, d})
	}
	slices.SortFunc(row, func(a, b nbrEntry) int { return cmp.Compare(a.w, b.w) })
	return row
}

// dist looks up w's distance in the row; ok is false when w is not in it.
func (row nbrRow) dist(w graph.V) (int, bool) {
	i, ok := slices.BinarySearchFunc(row, w, func(e nbrEntry, w graph.V) int { return cmp.Compare(e.w, w) })
	if !ok {
		return 0, false
	}
	return row[i].d, true
}

type prepared struct {
	g   *graph.Graph
	opt Options
	nbr []nbrRow
}

// Prepare implements search.Algorithm: it builds the neighbor index (one
// bounded undirected BFS per vertex, sharded across CPUs — rows are
// independent, so parallel construction is deterministic).
func (a *Algorithm) Prepare(g *graph.Graph) (search.Prepared, error) {
	n := g.NumVertices()
	p := &prepared{g: g, opt: a.opt, nbr: make([]nbrRow, n)}

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = max(1, n)
	}
	var wg sync.WaitGroup
	var total atomic.Int64
	var next atomic.Int64
	const chunk = 256
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := search.GetScratch(n, 0)
			defer search.PutScratch(s)
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= n {
					return
				}
				hi := min(lo+chunk, n)
				for v := lo; v < hi; v++ {
					if a.opt.MaxEntries > 0 && total.Load() > int64(a.opt.MaxEntries) {
						return // budget blown; stop early
					}
					row := neighbors(s, g, graph.V(v), a.opt.R)
					p.nbr[v] = row
					total.Add(int64(len(row)))
				}
			}
		}()
	}
	wg.Wait()
	if a.opt.MaxEntries > 0 && int(total.Load()) > a.opt.MaxEntries {
		return nil, fmt.Errorf("%w: > %d entries", ErrIndexTooLarge, a.opt.MaxEntries)
	}
	return p, nil
}

// EstimateEntries estimates the neighbor index size without materializing it
// by sampling nSample vertices; reported by the experiment that reproduces
// the paper's IMDB infeasibility claim.
func (a *Algorithm) EstimateEntries(g *graph.Graph, nSample int) int {
	if g.NumVertices() == 0 {
		return 0
	}
	if nSample <= 0 || nSample > g.NumVertices() {
		nSample = g.NumVertices()
	}
	step := g.NumVertices() / nSample
	if step == 0 {
		step = 1
	}
	s := search.GetScratch(g.NumVertices(), 0)
	defer search.PutScratch(s)
	sum, cnt := 0, 0
	for v := 0; v < g.NumVertices(); v += step {
		sum += len(s.Ball(g, []graph.V{graph.V(v)}, a.opt.R, search.Both)) - 1
		cnt++
	}
	return sum / cnt * g.NumVertices()
}

// dist looks up the indexed distance between u and w; ok is false when the
// pair is farther than R apart.
func (p *prepared) dist(u, w graph.V) (int, bool) {
	if u == w {
		return 0, true
	}
	return p.nbr[u].dist(w)
}

// Search implements search.Prepared.
func (p *prepared) Search(q []graph.Label, k int) ([]search.Match, error) {
	return p.SearchCtx(context.Background(), q, k)
}

// SearchCtx implements search.Prepared with cooperative cancellation:
// tuple enumeration (exhaustive mode) and center scans (top-k mode) are
// (throttled) checkpoints — the combinatorial candidate products are
// exactly where this semantics blows up — and on cancellation the feasible
// tuples found so far are returned with the context's error.
func (p *prepared) SearchCtx(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("rclique: empty query")
	}
	cancel := search.NewCanceller(ctx)
	sets := make([][]graph.V, len(q))
	for i, l := range q {
		sets[i] = p.g.VerticesWithLabel(l)
		if len(sets[i]) == 0 {
			return nil, nil
		}
	}
	sp := obs.SpanFromContext(ctx)
	led := obs.LedgerFromContext(ctx)
	// work counts candidate considerations (tuple extensions in exhaustive
	// mode, center scans in top-k mode). It lives on the stack, not in
	// prepared, because a prepared index serves concurrent queries.
	var work int64
	if k <= 0 {
		out := p.exhaustive(cancel, q, sets, &work)
		if sp != nil {
			sp.SetAttr("mode", "exhaustive").SetAttr("matches", len(out)).SetAttr("work", work)
		}
		led.AddExpanded(work)
		return out, cancel.Err()
	}
	out := p.topK(cancel, q, sets, k, &work, led)
	if sp != nil {
		sp.SetAttr("mode", "topk").SetAttr("matches", len(out)).SetAttr("work", work)
	}
	led.AddExpanded(work)
	return out, cancel.Err()
}

// exhaustive enumerates every feasible tuple: exact semantics, used for
// correctness testing and as the completeness source when r-clique runs on
// summary layers under BiG-index.
func (p *prepared) exhaustive(cancel *search.Canceller, q []graph.Label, sets [][]graph.V, work *int64) []search.Match {
	order := bySizeOrder(sets)
	var out []search.Match
	tuple := make([]graph.V, len(q))
	var rec func(step int)
	rec = func(step int) {
		if cancel.Cancelled() {
			return
		}
		if step == len(order) {
			out = append(out, p.makeMatch(tuple))
			return
		}
		i := order[step]
		for _, v := range sets[i] {
			if cancel.Cancelled() {
				return
			}
			*work++
			ok := true
			for _, j := range order[:step] {
				if _, within := p.dist(tuple[j], v); !within {
					ok = false
					break
				}
			}
			if ok {
				tuple[i] = v
				rec(step + 1)
			}
		}
	}
	rec(0)
	search.SortMatches(out)
	return out
}

func bySizeOrder(sets [][]graph.V) []int {
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(sets[a]) - len(sets[b]) })
	return order
}

func (p *prepared) makeMatch(tuple []graph.V) search.Match {
	nodes := append([]graph.V(nil), tuple...)
	score := 0
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			d, ok := p.dist(nodes[i], nodes[j])
			if !ok {
				// Pairwise distance beyond R (possible for approximate
				// answers, bounded by 2R through the center); recompute.
				d = undirDist(p.g, nodes[i], nodes[j], 2*p.opt.R)
			}
			score += d
		}
	}
	return search.Match{Root: nodes[0], Nodes: nodes, Score: float64(score)}
}

// undirDist is the undirected distance from u to w, or limit+1 when w is
// farther than limit.
func undirDist(g *graph.Graph, u, w graph.V, limit int) int {
	s := search.GetScratch(g.NumVertices(), 0)
	defer search.PutScratch(s)
	s.Ball(g, []graph.V{u}, limit, search.Both)
	if d, ok := s.BallDist(w); ok {
		return d
	}
	return limit + 1
}

// spState is a Lawler search-space: the full per-keyword candidate sets
// with per-keyword exclusion sets, plus its best approximate answer.
// Exclusion sets (instead of copied candidate lists) keep decomposition
// cheap and let bestOf test membership in O(1).
type spState struct {
	sets   [][]graph.V
	excl   []map[graph.V]bool
	best   []graph.V
	weight float64
}

type spHeap []*spState

func (h spHeap) Len() int            { return len(h) }
func (h spHeap) Less(i, j int) bool  { return h[i].weight < h[j].weight }
func (h spHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *spHeap) Push(x interface{}) { *h = append(*h, x.(*spState)) }
func (h *spHeap) Pop() interface{} {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}

// topK is the Kargar-An procedure: compute the approximate best answer of
// the full search space, then repeatedly emit the best space and decompose
// it into n subspaces, each excluding one chosen node.
func (p *prepared) topK(cancel *search.Canceller, q []graph.Label, sets [][]graph.V, k int, work *int64, led *obs.Ledger) []search.Match {
	h := &spHeap{}
	excl := make([]map[graph.V]bool, len(sets))
	if st := p.bestOf(cancel, q, sets, excl, work); st != nil {
		heap.Push(h, st)
	}
	seen := make(map[string]bool)
	var out []search.Match
	for h.Len() > 0 && len(out) < k {
		led.NoteFrontier(int64(h.Len()))
		if cancel.Cancelled() {
			break
		}
		st := heap.Pop(h).(*spState)
		m := p.makeMatch(st.best)
		if !seen[m.Key()] {
			seen[m.Key()] = true
			out = append(out, m)
		}
		for i := range st.sets {
			sub := make([]map[graph.V]bool, len(st.excl))
			for j, e := range st.excl {
				sub[j] = e // shared: only index i gets a fresh copy
			}
			ei := make(map[graph.V]bool, len(st.excl[i])+1)
			for v := range st.excl[i] {
				ei[v] = true
			}
			ei[st.best[i]] = true
			sub[i] = ei
			if len(ei) >= len(st.sets[i]) {
				continue // keyword i exhausted
			}
			if next := p.bestOf(cancel, q, st.sets, sub, work); next != nil {
				heap.Push(h, next)
			}
		}
	}
	search.SortMatches(out)
	return out
}

// bestOf computes the approximate best answer of a search space. Following
// Kargar & An, candidate centers are drawn from a single keyword's node set
// (we pick the smallest, deterministically); the optimal answer contains a
// node of that set, and centering on it bounds the returned weight within
// twice the optimum (their Theorem 2). One scan over the center's neighbor
// row finds, for every other keyword, the nearest non-excluded candidate
// (within R). Deterministic tie-breaks (ascending IDs) keep runs
// reproducible. Returns nil when the space has no feasible centered answer.
func (p *prepared) bestOf(cancel *search.Canceller, q []graph.Label, sets [][]graph.V, excl []map[graph.V]bool, work *int64) *spState {
	var best []graph.V
	bestW := -1.0
	// Dense label -> query-index table: bestOf scans millions of neighbor
	// rows, and a map lookup per entry dominates; a slot array is one
	// bounds-checked load. slot[l] = i+1 for the first query index with
	// label l; extra[l] holds the (rare) additional indices of duplicated
	// query keywords.
	slot := make([]int32, p.g.Dict().Len()+1)
	var extra map[graph.Label][]int
	for j, l := range q {
		if slot[l] == 0 {
			slot[l] = int32(j) + 1
		} else {
			if extra == nil {
				extra = make(map[graph.Label][]int)
			}
			extra[l] = append(extra[l], j)
		}
	}
	nearD := make([]int, len(q))
	nearV := make([]graph.V, len(q))
	center := 0
	for i := 1; i < len(sets); i++ {
		if len(sets[i]) < len(sets[center]) {
			center = i
		}
	}
	{
		i := center
		for _, u := range sets[i] {
			if cancel.Cancelled() {
				break
			}
			if excl[i] != nil && excl[i][u] {
				continue
			}
			*work++
			for j := range nearD {
				nearD[j] = -1
			}
			// u itself satisfies keywords sharing its label at distance 0.
			p.scanCandidate(u, 0, slot, extra, excl, nearD, nearV)
			for _, e := range p.nbr[u] {
				p.scanCandidate(e.w, e.d, slot, extra, excl, nearD, nearV)
			}
			tuple := make([]graph.V, len(sets))
			tuple[i] = u
			ok := true
			for j := range sets {
				if j == i {
					continue
				}
				if nearD[j] < 0 {
					ok = false
					break
				}
				tuple[j] = nearV[j]
			}
			if !ok {
				continue
			}
			w := p.weightOf(tuple)
			if bestW < 0 || w < bestW || (w == bestW && lessTuple(tuple, best)) {
				best, bestW = tuple, w
			}
		}
	}
	if best == nil {
		return nil
	}
	return &spState{sets: sets, excl: excl, best: best, weight: bestW}
}

// scanCandidate folds one neighbor (w at distance d) into the per-keyword
// nearest tables.
func (p *prepared) scanCandidate(w graph.V, d int, slot []int32, extra map[graph.Label][]int, excl []map[graph.V]bool, nearD []int, nearV []graph.V) {
	l := p.g.Label(w)
	ji := slot[l]
	if ji == 0 {
		return
	}
	p.fold(int(ji-1), w, d, excl, nearD, nearV)
	if extra != nil {
		for _, j := range extra[l] {
			p.fold(j, w, d, excl, nearD, nearV)
		}
	}
}

func (p *prepared) fold(j int, w graph.V, d int, excl []map[graph.V]bool, nearD []int, nearV []graph.V) {
	if excl[j] != nil && excl[j][w] {
		return
	}
	if nearD[j] < 0 || d < nearD[j] || (d == nearD[j] && w < nearV[j]) {
		nearD[j], nearV[j] = d, w
	}
}

func (p *prepared) weightOf(tuple []graph.V) float64 {
	w := 0
	for i := 0; i < len(tuple); i++ {
		for j := i + 1; j < len(tuple); j++ {
			d, ok := p.dist(tuple[i], tuple[j])
			if !ok {
				d = 2 * p.opt.R
			}
			w += d
		}
	}
	return float64(w)
}

func lessTuple(a, b []graph.V) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// NewGeneration implements search.Algorithm; see generation in this package.
func (a *Algorithm) NewGeneration(data *graph.Graph, q []graph.Label, opt search.GenOptions) search.Generation {
	return &generation{
		g:     data,
		q:     q,
		r:     a.opt.R,
		opt:   opt,
		cache: make(map[graph.V]nbrRow),
		seen:  make(map[string]bool),
	}
}
