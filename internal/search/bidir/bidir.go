// Package bidir implements bidirectional expansion keyword search in the
// style of Kacholia et al. (VLDB'05), the fourth semantics plugged into
// BiG-index (Sec. 5 lists it among the algorithms the framework optimizes
// "with minor modifications").
//
// BANKS-style purely backward search wastes effort expanding from frequent
// keywords: their huge posting lists flood the graph. Bidirectional
// expansion instead grows *backward* only from the most selective keyword —
// an activation source — and verifies each candidate root it reaches by
// expanding *forward* toward the remaining keywords. Since every answer
// root must reach the selective keyword within d_max, restricting the
// backward phase to it loses nothing; the forward phase recomputes exact
// distances, so the answers (distinct-root, Σ-distance scored) are
// identical to bkws/Blinks — only the exploration strategy differs.
//
// Candidates are verified in increasing backward distance (the activation
// order), which yields a sound top-k stop: a future root's score is at
// least its backward distance to the selective keyword.
package bidir

import (
	"context"
	"fmt"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
	"bigindex/internal/shard"
)

// Algorithm is the bidirectional-expansion plug-in.
type Algorithm struct {
	dmax int
}

// New returns a bidir instance with distance bound dmax.
func New(dmax int) *Algorithm {
	if dmax < 1 {
		dmax = 1
	}
	return &Algorithm{dmax: dmax}
}

// NewSharded returns a bidir variant that executes each search across the
// internal/shard worker pool: the backward activation from the selective
// keyword runs block-sharded, and forward verifications — bidir's
// dominant cost, independent per candidate — run in parallel chunks.
// Answers are byte-identical to New's at every worker count.
func NewSharded(dmax int, opt shard.Options) search.Algorithm {
	if dmax < 1 {
		dmax = 1
	}
	return shard.New(shard.ModeBidir, dmax, opt)
}

// Name implements search.Algorithm.
func (a *Algorithm) Name() string { return "bidir" }

// DMax returns the configured distance bound.
func (a *Algorithm) DMax() int { return a.dmax }

// Prepare implements search.Algorithm; bidirectional expansion is
// index-free like bkws.
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

// SearchCtx implements search.Prepared with cooperative cancellation:
// candidate verifications and backward expansions are (throttled)
// checkpoints, and on cancellation the verified roots found so far are
// returned with the context's error.
func (p *prepared) SearchCtx(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("bidir: empty query")
	}
	cancel := search.NewCanceller(ctx)
	sp := obs.SpanFromContext(ctx)
	led := obs.LedgerFromContext(ctx)
	verifiedN := 0
	frontierPeak := 0
	earlyStop := false
	sel := 0
	for i, l := range q {
		if p.g.LabelCount(l) == 0 {
			return nil, nil
		}
		if p.g.LabelCount(l) < p.g.LabelCount(q[sel]) {
			sel = i
		}
	}

	// Backward activation phase: level-order BFS from the selective
	// keyword's posting list; candidates surface in increasing distance.
	// Distances live in a stamped row of a pooled scratch, whose visited
	// row also serves the forward probes.
	s := search.GetScratch(p.g.NumVertices(), 1)
	defer search.PutScratch(s)
	f := s.Frontier(0)
	for _, v := range p.g.VerticesWithLabel(q[sel]) {
		s.Reach(0, v, 0)
		f.Cur = append(f.Cur, v)
	}

	var matches []search.Match
	verify := func(r graph.V) {
		verifiedN++
		// Forward phase: exact minimum distances to every keyword. The
		// selective keyword's distance is recomputed too; the forward
		// minimum can only equal the backward one.
		if m, ok := s.RootMatch(p.g, r, q, p.dmax); ok {
			matches = append(matches, m)
		}
	}

activation:
	for ; len(f.Cur) > 0; f.Advance() {
		d := f.Level
		if len(f.Cur) > frontierPeak {
			frontierPeak = len(f.Cur)
		}
		for _, v := range f.Cur {
			if cancel.Cancelled() {
				break activation
			}
			verify(v)
		}
		if k > 0 && len(matches) >= k {
			// Any future candidate has backward distance >= d+1 to the
			// selective keyword, hence score >= d+1. Strictly better, not
			// equal: a future root scoring exactly d+1 could displace the
			// k-th answer in the (score, Key) tie-break order, so only a
			// strictly better k-th closes the search, making the top-k
			// exactly the exhaustive prefix.
			search.SortMatches(matches)
			if matches[k-1].Score < float64(d+1) {
				earlyStop = true
				break
			}
		}
		if d == p.dmax {
			break
		}
		for _, v := range f.Cur {
			if cancel.Cancelled() {
				break activation
			}
			for _, u := range p.g.In(v) {
				if s.Reach(0, u, d+1) {
					f.Next = append(f.Next, u)
				}
			}
		}
	}

	if sp != nil {
		sp.SetAttr("verified", verifiedN).
			SetAttr("roots", len(matches)).
			SetAttr("early_topk", earlyStop)
	}
	led.AddExpanded(int64(verifiedN))
	led.NoteFrontier(int64(frontierPeak))
	search.SortMatches(matches)
	return search.Truncate(matches, k), cancel.Err()
}

// NewGeneration implements search.Algorithm; bidir shares the rooted
// generation step with bkws and Blinks.
func (a *Algorithm) NewGeneration(data *graph.Graph, q []graph.Label, opt search.GenOptions) search.Generation {
	return search.NewRootedGeneration(data, q, a.dmax, nil, opt)
}
