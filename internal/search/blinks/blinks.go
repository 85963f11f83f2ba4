// Package blinks implements the ranked keyword search of He et al.
// (SIGMOD'07), the rkws semantics of Sec. 5.3: distinct-root answers ranked
// by Σ_i dist(r, p_i), found by backward expansion accelerated with a
// bi-level index over a graph partition.
//
// The single-level BLINKS index needs O(|V|²) space and is infeasible for
// large graphs (as the paper notes), so — like the paper — we build the
// bi-level variant: the graph is partitioned into blocks (the paper used
// METIS; we use the BFS-grown partitioner in internal/partition), and each
// block precomputes its intra-block backward distance table (the
// keyword-node list / node-keyword map information of BLINKS, folded into
// one table bounded by d_max). Backward expansion then proceeds block-wise:
// finalizing a vertex bulk-relaxes its whole block through the table and
// crosses block boundaries through explicit in-edges, so the searched
// frontier touches far fewer adjacency lists than plain BFS.
package blinks

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/partition"
	"bigindex/internal/search"
)

// Options configures the Blinks instance.
type Options struct {
	// DMax is the pruning threshold τ_prune: answer roots must reach every
	// keyword within DMax hops (the paper's experiments use 5).
	DMax int
	// BlockSize is the partition target block size (the paper's METIS
	// average block size was 1000 on million-vertex graphs; scale with the
	// dataset).
	BlockSize int
	// Score is the ranking function of Sec. 5.3's API (rank by scr over the
	// per-keyword distance vector); nil uses the distance sum of He et al.
	// Top-k early termination assumes the distance-based score; with a
	// custom Score the search exhausts the d_max horizon before truncating,
	// and rank preservation across index layers (Prop 5.3) is the caller's
	// responsibility.
	Score search.ScoreFunc
}

// Algorithm is the Blinks plug-in.
type Algorithm struct {
	opt Options
}

// New returns a Blinks instance.
func New(opt Options) *Algorithm {
	if opt.DMax < 1 {
		opt.DMax = 1
	}
	if opt.BlockSize < 1 {
		opt.BlockSize = 128
	}
	return &Algorithm{opt: opt}
}

// Name implements search.Algorithm.
func (a *Algorithm) Name() string { return "blinks" }

// DMax returns the configured distance bound.
func (a *Algorithm) DMax() int { return a.opt.DMax }

// Prepare implements search.Algorithm: it partitions the graph and builds
// the bi-level index. This is index construction time, not query time.
func (a *Algorithm) Prepare(g *graph.Graph) (search.Prepared, error) {
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("blinks: empty graph")
	}
	part := partition.BFSGrow(g, a.opt.BlockSize)

	// local[v] holds the intra-block backward distance rows: for target v,
	// every x in v's block with an intra-block path x ->* v of length <= DMax
	// (excluding x == v). Blocks are independent, so table construction is
	// sharded across CPUs deterministically.
	local := make([][]entry, g.NumVertices())
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var next atomic.Int64
	nBlocks := part.NumBlocks()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				buildBlockTables(g, part, b, a.opt.DMax, local)
			}
		}()
	}
	wg.Wait()

	// hasKeyword[b] is the block-keyword index: the labels present in block
	// b, used to seed expansion only in relevant blocks.
	hasKeyword := make([]map[graph.Label]bool, part.NumBlocks())
	for b, members := range part.Blocks {
		m := make(map[graph.Label]bool)
		for _, v := range members {
			m[g.Label(v)] = true
		}
		hasKeyword[b] = m
	}

	return &prepared{g: g, part: part, local: local, hasKw: hasKeyword, opt: a.opt}, nil
}

type entry struct {
	v graph.V
	d int
}

// buildBlockTables runs, for every vertex t of block b, a backward BFS
// restricted to intra-block edges, bounded by dmax, and records the rows in
// local[t].
func buildBlockTables(g *graph.Graph, part *partition.Partitioning, b, dmax int, local [][]entry) {
	for _, t := range part.Blocks[b] {
		dist := map[graph.V]int{t: 0}
		queue := []graph.V{t}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			dv := dist[v]
			if dv == dmax {
				continue
			}
			for _, u := range g.In(v) {
				if part.BlockOf[u] != b {
					continue
				}
				if _, ok := dist[u]; !ok {
					dist[u] = dv + 1
					queue = append(queue, u)
					local[t] = append(local[t], entry{u, dv + 1})
				}
			}
		}
	}
}

type prepared struct {
	g     *graph.Graph
	part  *partition.Partitioning
	local [][]entry
	hasKw []map[graph.Label]bool
	opt   Options
}

// pqItem is a tentative backward distance for one keyword's expansion.
type pqItem struct {
	v graph.V
	d int
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].d < p[j].d || (p[i].d == p[j].d && p[i].v < p[j].v) }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// Search implements search.Prepared: round-robin backward expansion of the
// keywords' priority queues ("expanding backward and forward", Sec. 5.3),
// with the BLINKS top-k stopping rule.
func (p *prepared) Search(q []graph.Label, k int) ([]search.Match, error) {
	return p.SearchCtx(context.Background(), q, k)
}

// SearchCtx implements search.Prepared with cooperative cancellation: every
// finalize event (queue pop) is a (throttled) checkpoint, and on
// cancellation the answers emitted so far are returned with the context's
// error.
func (p *prepared) SearchCtx(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("blinks: empty query")
	}
	cancel := search.NewCanceller(ctx)
	sp := obs.SpanFromContext(ctx)
	led := obs.LedgerFromContext(ctx)
	finalized := 0
	frontierPeak := 0
	earlyStop := false
	n := len(q)
	queues := make([]*pq, n)
	final := make([]map[graph.V]int, n)
	for i, l := range q {
		// Block-keyword index: if no block contains the keyword, the query
		// has no answers — checked before touching posting lists, as in
		// BLINKS' block pruning.
		present := false
		for _, m := range p.hasKw {
			if m[l] {
				present = true
				break
			}
		}
		if !present {
			return nil, nil
		}
		h := &pq{}
		for _, s := range p.g.VerticesWithLabel(l) {
			heap.Push(h, pqItem{s, 0})
		}
		queues[i] = h
		final[i] = make(map[graph.V]int)
	}

	haveAll := make(map[graph.V]int) // vertex -> number of finalized keywords
	var matches []search.Match
	checkedTop := -1 // minTop at the last top-k bound check
	score := p.opt.Score
	if score == nil {
		score = search.SumDistances
	}
	emit := func(v graph.V) {
		dists := make([]int, n)
		for i := range q {
			dists[i] = final[i][v]
		}
		matches = append(matches, search.Match{
			Root:  v,
			Nodes: search.WitnessNodes(p.g, v, q, dists),
			Dists: dists,
			Score: score(dists),
		})
	}

	for {
		if cancel.Cancelled() {
			break
		}
		// Stopping rule: every queue empty, or top-k bound reached. Any
		// future root is emitted at a finalize event popped from some live
		// queue, so its score is at least the smallest live queue top.
		live := -1
		smallest := -1
		minTop := -1
		queued := 0
		for i, h := range queues {
			queued += h.Len()
			if h.Len() == 0 {
				continue
			}
			top := (*h)[0].d
			if minTop == -1 || top < minTop {
				minTop = top
			}
			if live == -1 || h.Len() < smallest {
				live, smallest = i, h.Len()
			}
		}
		if queued > frontierPeak {
			frontierPeak = queued
		}
		if live == -1 {
			break
		}
		// Checked only when minTop rises: minTop never falls and new roots
		// score >= minTop, so a k-th score that was >= minTop stays so until
		// it rises. That is at most d_max+1 sorts per search, not one per pop.
		if k > 0 && len(matches) >= k && p.opt.Score == nil && minTop > checkedTop {
			checkedTop = minTop
			search.SortMatches(matches)
			// Strictly better, not equal: an undiscovered root scoring
			// exactly minTop could still displace the current k-th answer in
			// the (score, Key) tie-break order. With the strict bound the
			// returned top-k is exactly the exhaustive answer's prefix.
			if matches[k-1].Score < float64(minTop) {
				earlyStop = true
				break
			}
		}

		h := queues[live]
		it := heap.Pop(h).(pqItem)
		if _, ok := final[live][it.v]; ok {
			continue
		}
		finalized++
		final[live][it.v] = it.d
		if haveAll[it.v]++; haveAll[it.v] == n {
			emit(it.v)
		}

		// Bi-level relaxation: bulk in-block rows, then cross-block edges.
		for _, e := range p.local[it.v] {
			if it.d+e.d <= p.opt.DMax {
				if _, ok := final[live][e.v]; !ok {
					heap.Push(h, pqItem{e.v, it.d + e.d})
				}
			}
		}
		if it.d+1 <= p.opt.DMax {
			vb := p.part.BlockOf[it.v]
			for _, u := range p.g.In(it.v) {
				if p.part.BlockOf[u] == vb {
					continue // intra-block handled by the table
				}
				if _, ok := final[live][u]; !ok {
					heap.Push(h, pqItem{u, it.d + 1})
				}
			}
		}
	}

	if sp != nil {
		sp.SetAttr("finalized", finalized).
			SetAttr("roots", len(matches)).
			SetAttr("early_topk", earlyStop)
	}
	led.AddExpanded(int64(finalized))
	led.NoteFrontier(int64(frontierPeak))
	search.SortMatches(matches)
	return search.Truncate(matches, k), cancel.Err()
}

// NewGeneration implements search.Algorithm; Blinks shares the rooted
// generation/verification step with bkws (Sec. 5.3 step (3) says it is the
// same as boost-bkws).
func (a *Algorithm) NewGeneration(data *graph.Graph, q []graph.Label, opt search.GenOptions) search.Generation {
	return search.NewRootedGeneration(data, q, a.opt.DMax, a.opt.Score, opt)
}

// IndexStats reports the size of a prepared bi-level index; used by
// experiment reports.
type IndexStats struct {
	Blocks     int
	EdgeCut    int
	TableRows  int
	AvgRowsPer float64
	// KeywordBlocks is the total size of the block-keyword index (number
	// of (block, label) pairs) — the bitmap BLINKS consults to skip blocks
	// during expansion.
	KeywordBlocks int
}

// Stats returns index statistics for a Prepared produced by this package.
func Stats(p search.Prepared) (IndexStats, bool) {
	bp, ok := p.(*prepared)
	if !ok {
		return IndexStats{}, false
	}
	rows := 0
	for _, l := range bp.local {
		rows += len(l)
	}
	kb := 0
	for _, m := range bp.hasKw {
		kb += len(m)
	}
	return IndexStats{
		Blocks:        bp.part.NumBlocks(),
		EdgeCut:       bp.part.EdgeCut(),
		TableRows:     rows,
		AvgRowsPer:    float64(rows) / float64(max(1, bp.g.NumVertices())),
		KeywordBlocks: kb,
	}, true
}
