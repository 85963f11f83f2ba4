// Package blinks implements the ranked keyword search of He et al.
// (SIGMOD'07), the rkws semantics of Sec. 5.3: distinct-root answers ranked
// by Σ_i dist(r, p_i), found by backward expansion with the BLINKS top-k
// stopping rule.
//
// Each keyword runs its own Dijkstra-style backward expansion, and the
// keywords take turns one finalize event at a time, the keyword with the
// fewest queued vertices first. Every in-edge weighs one hop, so each
// keyword's priority queue is a bucket queue indexed by distance in which
// only the buckets d and d+1 are ever non-empty: two level buffers of a
// pooled search.Scratch, whose stamped rows also hold the distances and
// count how many keywords have finalized each vertex.
//
// BLINKS proper accelerates the expansion with a bi-level index: a graph
// partition (the paper's METIS) with a precomputed intra-block distance
// table per block. This package used to build one (over
// internal/partition's BFS-grown blocks), but on the dense kernel the
// tables lost: at 120k entities the search took 2.3× as long with them as
// without, and building them cost ~105 ms and 11 MiB per layer, paid again
// after every mutation (EXPERIMENTS.md). Prepare is therefore O(1) and
// keeps no per-graph index.
package blinks

import (
	"context"
	"fmt"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
)

// Options configures the Blinks instance.
type Options struct {
	// DMax is the pruning threshold τ_prune: answer roots must reach every
	// keyword within DMax hops (the paper's experiments use 5).
	DMax int
	// BlockSize is ignored.
	//
	// Deprecated: it sized the blocks of the bi-level index, which is gone
	// (see the package comment).
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
	return &Algorithm{opt: opt}
}

// Name implements search.Algorithm.
func (a *Algorithm) Name() string { return "blinks" }

// DMax returns the configured distance bound.
func (a *Algorithm) DMax() int { return a.opt.DMax }

// Prepare implements search.Algorithm. It builds nothing.
func (a *Algorithm) Prepare(g *graph.Graph) (search.Prepared, error) {
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("blinks: empty graph")
	}
	return &prepared{g: g, opt: a.opt}, nil
}

type prepared struct {
	g   *graph.Graph
	opt Options
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
	for _, l := range q {
		if p.g.LabelCount(l) == 0 {
			return nil, nil
		}
	}
	cancel := search.NewCanceller(ctx)
	sp := obs.SpanFromContext(ctx)
	led := obs.LedgerFromContext(ctx)
	finalized := 0
	frontierPeak := 0
	earlyStop := false
	n := len(q)
	s := search.GetScratch(p.g.NumVertices(), n)
	defer search.PutScratch(s)

	// queues[i] is keyword i's bucket queue: Cur holds the bucket at
	// distance Level, Next the one at Level+1. A vertex is queued once,
	// at its first (hence minimum) distance.
	queues := make([]*search.Frontier, n)
	for i, l := range q {
		f := s.Frontier(i)
		for _, v := range p.g.VerticesWithLabel(l) {
			s.Reach(i, v, 0)
			f.Cur = append(f.Cur, v)
		}
		queues[i] = f
	}

	var matches []search.Match
	checkedTop := -1 // minTop at the last top-k bound check
	score := p.opt.Score
	if score == nil {
		score = search.SumDistances
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
		for i, f := range queues {
			size := len(f.Cur) + len(f.Next)
			queued += size
			if size == 0 {
				continue
			}
			top := f.Level
			if len(f.Cur) == 0 {
				top++
			}
			if minTop == -1 || top < minTop {
				minTop = top
			}
			if live == -1 || size < smallest {
				live, smallest = i, size
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
			// returned top-k is exactly the exhaustive answer's prefix, so
			// the pop order inside a bucket never shows.
			if matches[k-1].Score < float64(minTop) {
				earlyStop = true
				break
			}
		}

		f := queues[live]
		if len(f.Cur) == 0 {
			f.Advance()
		}
		v := f.Cur[len(f.Cur)-1]
		f.Cur = f.Cur[:len(f.Cur)-1]
		finalized++
		if s.CountRoot(v) == n {
			dists := s.Dists(v, n)
			matches = append(matches, search.Match{Root: v, Dists: dists, Score: score(dists)})
		}
		if d := f.Level + 1; d <= p.opt.DMax {
			for _, u := range p.g.In(v) {
				if s.Reach(live, u, d) {
					f.Next = append(f.Next, u)
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
	matches = search.Truncate(matches, k)
	s.Witness(p.g, q, matches)
	return matches, cancel.Err()
}

// NewGeneration implements search.Algorithm; Blinks shares the rooted
// generation/verification step with bkws (Sec. 5.3 step (3) says it is the
// same as boost-bkws).
func (a *Algorithm) NewGeneration(data *graph.Graph, q []graph.Label, opt search.GenOptions) search.Generation {
	return search.NewRootedGeneration(data, q, a.opt.DMax, a.opt.Score, opt)
}
