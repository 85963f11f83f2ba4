// Package bkws implements backward keyword search (Sec. 5.1 of the paper;
// the BANKS lineage of Bhalotia et al., ICDE'02, with the distinct-root
// refinement of He et al.): an answer is a root vertex r that reaches, along
// out-edges, at least one vertex labeled q_i within d_max hops for every
// query keyword, scored by Σ_i dist(r, p_i) with p_i the nearest q_i vertex.
//
// The search runs backward: every keyword seeds a multi-source traversal
// along in-edges from the vertices carrying that keyword; a vertex reached
// by all traversals is an answer root. Frontiers are expanded smallest
// first, the paper's "the vertex set V_i with the minimal size is
// processed" rule, and top-k search stops once no undiscovered root can
// beat the current k-th score.
package bkws

import (
	"context"
	"fmt"
	"slices"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
	"bigindex/internal/shard"
)

// Algorithm is the bkws plug-in. The zero value is not usable; construct
// with New.
type Algorithm struct {
	dmax int
}

// New returns a bkws instance with distance bound dmax (the d_max of the
// keyword query tuple (Q, d_max)).
func New(dmax int) *Algorithm {
	if dmax < 1 {
		dmax = 1
	}
	return &Algorithm{dmax: dmax}
}

// NewSharded returns a bkws variant that executes each search across the
// internal/shard worker pool: per-(keyword × block) backward expansions
// in parallel, stitched at portal vertices by a scatter-gather
// coordinator. Answers are byte-identical to New's at every worker count
// (both equal the exhaustive top-k prefix; see the strict early-stop
// bound below).
func NewSharded(dmax int, opt shard.Options) search.Algorithm {
	if dmax < 1 {
		dmax = 1
	}
	return shard.New(shard.ModeBKWS, dmax, opt)
}

// Name implements search.Algorithm.
func (a *Algorithm) Name() string { return "bkws" }

// DMax returns the configured distance bound.
func (a *Algorithm) DMax() int { return a.dmax }

// Prepare implements search.Algorithm. bkws needs no per-graph index — that
// is its point of comparison with Blinks.
func (a *Algorithm) Prepare(g *graph.Graph) (search.Prepared, error) {
	return &prepared{g: g, dmax: a.dmax}, nil
}

type prepared struct {
	g    *graph.Graph
	dmax int
}

// Search implements search.Prepared.
func (p *prepared) Search(q []graph.Label, k int) ([]search.Match, error) {
	return p.SearchCtx(context.Background(), q, k)
}

// SearchCtx implements search.Prepared with cooperative cancellation: every
// frontier expansion is a (throttled) checkpoint, and on cancellation the
// roots discovered so far are returned with the context's error.
//
// Each keyword's backward distances live in a stamped row of a pooled
// search.Scratch, and the scratch's root counter marks a vertex as an
// answer root when the last keyword reaches it. Witness nodes are
// presentational (Match.Key ignores them), so they are found only for the
// matches returned.
func (p *prepared) SearchCtx(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("bkws: empty query")
	}
	for _, l := range q {
		if p.g.LabelCount(l) == 0 {
			return nil, nil // a keyword with no occurrences has no answers
		}
	}
	cancel := search.NewCanceller(ctx)
	sp := obs.SpanFromContext(ctx)
	led := obs.LedgerFromContext(ctx)
	expansions := 0
	frontierPeak := 0
	earlyStop := false
	s := search.GetScratch(p.g.NumVertices(), len(q))
	defer search.PutScratch(s)

	var matches []search.Match
	// reach records v at distance d from keyword kw and emits v once every
	// keyword has reached it.
	reach := func(kw int, v graph.V, d int) bool {
		if !s.Reach(kw, v, d) {
			return false
		}
		if s.CountRoot(v) == len(q) {
			dists := s.Dists(v, len(q))
			matches = append(matches, search.Match{Root: v, Dists: dists, Score: search.SumDistances(dists)})
		}
		return true
	}
	fronts := make([]*search.Frontier, len(q))
	for i, l := range q {
		f := s.Frontier(i)
		for _, v := range p.g.VerticesWithLabel(l) {
			reach(i, v, 0)
			f.Cur = append(f.Cur, v)
		}
		fronts[i] = f
	}

expand:
	for {
		if cancel.Cancelled() {
			break
		}
		// Pick the live frontier with the fewest vertices (paper's rule).
		kw := -1
		live := 0
		for i, f := range fronts {
			live += len(f.Cur)
			if f.Level >= p.dmax || len(f.Cur) == 0 {
				continue
			}
			if kw == -1 || len(f.Cur) < len(fronts[kw].Cur) {
				kw = i
			}
		}
		if live > frontierPeak {
			frontierPeak = live
		}
		if kw == -1 {
			break
		}
		if k > 0 && len(matches) >= k {
			// Lower bound on any future root's score: it is completed by a
			// frontier expansion, so its distance for that keyword is at
			// least the smallest live frontier level + 1.
			lb := -1
			for _, f := range fronts {
				if f.Level < p.dmax && len(f.Cur) > 0 && (lb == -1 || f.Level+1 < lb) {
					lb = f.Level + 1
				}
			}
			search.SortMatches(matches)
			// Strictly better, not equal: an undiscovered root scoring
			// exactly lb could still displace the current k-th answer in
			// the (score, Key) tie-break order. With the strict bound the
			// returned top-k is exactly the exhaustive answer's prefix, so
			// the order in which roots are found never shows.
			if lb >= 0 && matches[min(k, len(matches))-1].Score < float64(lb) {
				earlyStop = true
				break
			}
		}

		best := fronts[kw]
		for _, v := range best.Cur {
			if cancel.Cancelled() {
				break expand
			}
			expansions++
			for _, u := range p.g.In(v) {
				if reach(kw, u, best.Level+1) {
					best.Next = append(best.Next, u)
				}
			}
		}
		best.Advance()
	}

	if sp != nil {
		sp.SetAttr("expansions", expansions).
			SetAttr("roots", len(matches)).
			SetAttr("early_topk", earlyStop)
	}
	led.AddExpanded(int64(expansions))
	led.NoteFrontier(int64(frontierPeak))
	search.SortMatches(matches)
	matches = search.Truncate(matches, k)
	s.Witness(p.g, q, matches)
	return matches, cancel.Err()
}

// NewGeneration implements search.Algorithm; see generation.go (shared
// root-based generation).
func (a *Algorithm) NewGeneration(data *graph.Graph, q []graph.Label, opt search.GenOptions) search.Generation {
	return search.NewRootedGeneration(data, q, a.dmax, nil, opt)
}

// Roots is a debugging helper: all answer roots of q, ascending.
func Roots(ms []search.Match) []graph.V {
	rs := make([]graph.V, 0, len(ms))
	for _, m := range ms {
		rs = append(rs, m.Root)
	}
	slices.Sort(rs)
	return rs
}
