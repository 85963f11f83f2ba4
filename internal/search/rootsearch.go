package search

import (
	"context"
	"fmt"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
)

// Rooted is the distinct-root keyword search behind bkws, bidir and
// Blinks (Secs. 5.1 and 5.3): an answer is a root vertex r that reaches,
// along out-edges, at least one vertex labeled q_i within d_max hops for
// every query keyword, scored by Σ_i dist(r, p_i) with p_i the nearest q_i
// vertex. The search runs backward: a keyword seeds a multi-source
// traversal along in-edges from the vertices carrying it, and a vertex
// every traversal reaches is an answer root.
//
// The three searches are one loop under three Schedules, and it stops as
// soon as its answers are settled, for two reasons. Top-k search stops
// once no undiscovered root can beat the current k-th answer, and the
// bound is strict, so the top-k is exactly the exhaustive answer's prefix
// and the schedule never shows in the answers. Every search, exhaustive
// or top-k, also stops once no undiscovered root can exist: every root
// lies in every keyword's d_max ball, so once some keywords' balls are
// complete, new roots can only be vertices of all of them that are not
// roots yet, and when there are none the answer set is already complete.
type Rooted struct {
	name  string
	dmax  int
	sched Schedule
	score ScoreFunc // nil: SumDistances
}

// Schedule is the expansion order of a rooted search. Each expanding
// keyword has one level-order queue, and each turn goes to the live queue
// with the fewest queued vertices, len(Cur)+len(Next): level turns leave
// Next empty between turns, so that is the frontier size BANKS compares.
// A queue that next returns -1 for is exhausted: every vertex it reached
// has settled, so its Reached is the keyword's complete ball.
type Schedule struct {
	// rarest expands only the keyword with the fewest occurrences, which
	// every answer root reaches within d_max; each vertex it reaches is a
	// candidate root, verified forward (RootMatch).
	rarest bool
	// finalize makes a turn settle the last vertex of the queue's nearest
	// bucket instead of expanding the queue's whole level. A vertex counts
	// towards its roots when it settles: under level turns, when reached.
	finalize bool
}

var (
	// BANKS expands every keyword, the smallest frontier a whole level
	// per turn (Bhalotia et al.): the paper's bkws.
	BANKS = Schedule{}
	// BLINKS finalizes one vertex per turn from per-keyword bucket queues
	// (He et al.).
	BLINKS = Schedule{finalize: true}
	// Bidirectional expands only the rarest keyword, a level per turn,
	// and verifies its candidates forward (Kacholia et al.).
	Bidirectional = Schedule{rarest: true}
)

// next returns the distance at which f's next vertex settles, or -1 if
// none will.
func (sc Schedule) next(f *Frontier, dmax int) int {
	switch {
	case sc.finalize && f.hi > f.lo:
		return f.Level
	case sc.finalize && len(f.Reached) > f.mark, !sc.finalize && f.hi > f.lo && f.Level < dmax:
		return f.Level + 1
	}
	return -1
}

// NewRooted returns the rooted search named name with distance bound dmax
// under schedule sched. A nil score ranks by SumDistances and stops top-k
// search early; any other score is exhaustive, since the early stop
// assumes the distance sum.
func NewRooted(name string, dmax int, sched Schedule, score ScoreFunc) *Rooted {
	return &Rooted{name: name, dmax: max(dmax, 1), sched: sched, score: score}
}

// Name implements Algorithm.
func (a *Rooted) Name() string { return a.name }

// Prepare implements Algorithm. The search keeps no per-graph index.
func (a *Rooted) Prepare(g *graph.Graph) (Prepared, error) {
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("%s: empty graph", a.name)
	}
	return &rootedSearch{Rooted: a, g: g}, nil
}

// NewGeneration implements Algorithm with the shared rooted generation
// step (Sec. 5.3 step (3) is the same as boost-bkws').
func (a *Rooted) NewGeneration(data *graph.Graph, q []graph.Label, opt GenOptions) Generation {
	return NewRootedGeneration(data, q, a.dmax, a.score, opt)
}

type rootedSearch struct {
	*Rooted
	g *graph.Graph
}

// Search implements Prepared.
func (p *rootedSearch) Search(q []graph.Label, k int) ([]Match, error) {
	return p.SearchCtx(context.Background(), q, k)
}

// SearchCtx implements Prepared. Every turn, and every vertex a turn
// takes or verifies, is a (throttled) cancellation checkpoint; on
// cancellation the roots found so far are returned with the context's
// error.
//
// Each queue's distances live in a stamped row of a pooled Scratch, whose
// root counter marks a vertex as found when the last expanding keyword
// settles it. Witness nodes are presentational (Match.Key ignores them),
// so they are found only for the matches returned.
//
// When a queue is exhausted, its keyword's ball is complete and settled.
// The first complete ball seeds the candidate roots, its vertices that
// are not roots yet; each later one keeps only the candidates it holds.
// A root found afterwards lies in every complete ball, so it is a
// candidate, and the search ends once every candidate is a root. The stop
// is exact: no vertex outside the candidates can become a root, and the
// roots already found keep their distances, so it changes no answer for
// any k or score. Bidirectional's single queue ends the loop when it is
// exhausted, so the stop never fires there.
func (p *rootedSearch) SearchCtx(ctx context.Context, q []graph.Label, k int) ([]Match, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("%s: empty query", p.name)
	}
	g, dmax, sched := p.g, p.dmax, p.sched
	rarest := 0
	for i, l := range q {
		c := g.LabelCount(l)
		if c == 0 {
			return nil, nil // a keyword with no occurrences has no answers
		}
		if c < g.LabelCount(q[rarest]) {
			rarest = i
		}
	}
	expand := q
	if sched.rarest {
		expand = q[rarest : rarest+1]
	}
	score := p.score
	if score == nil {
		score = SumDistances
	}
	cancel := NewCanceller(ctx)
	s := GetScratch(g.NumVertices(), len(expand))
	defer PutScratch(s)

	fronts := s.fronts[:len(expand)]
	var matches []Match
	work := 0 // vertices the turns take; forward verifications under rarest
	// cands are the candidate roots once some ball is complete; left counts
	// those not found since (-1 before any ball is complete).
	cands, left := s.cands[:0], -1
	// found takes v once every keyword has settled it, an answer root, or
	// under rarest once it settles, a candidate root to verify forward.
	// Callers count settling keywords (CountRoot) inline, on the hot path.
	found := func(v graph.V) {
		if !sched.rarest {
			dists := s.Dists(v, len(q))
			matches = append(matches, Match{Root: v, Dists: dists, Score: score(dists)})
			if left > 0 {
				left--
			}
		} else if !cancel.Cancelled() {
			work++
			if m, ok := s.RootMatch(g, v, q, dmax); ok {
				m.Score = score(m.Dists)
				matches = append(matches, m)
			}
		}
	}
	// closeBall takes exhausted queue i's complete ball into cands.
	closeBall := func(i int) {
		f := &fronts[i]
		f.closed = true
		if left < 0 {
			for _, v := range f.Reached {
				if s.RootCount(v) < len(q) {
					cands = append(cands, v)
				}
			}
		} else {
			kept := cands[:0]
			for _, v := range cands {
				if _, ok := s.Dist(i, v); ok && s.RootCount(v) < len(q) {
					kept = append(kept, v)
				}
			}
			cands = kept
		}
		left = len(cands)
	}
	for i, l := range expand {
		f := &fronts[i]
		for _, v := range g.VerticesWithLabel(l) {
			if s.Reach(i, v, 0) {
				f.Push(v)
				if !sched.finalize && (sched.rarest || s.CountRoot(v) == len(q)) {
					found(v)
				}
			}
		}
		f.Advance()
	}

	peak, checked, earlyStop := 0, -1, false // checked: the bound last checked
	for !cancel.Cancelled() {
		// A root not found yet settles at a turn of a live queue, so it
		// scores at least the nearest distance a live queue settles at.
		kw, smallest, bound, queued, closing := -1, 0, -1, 0, false
		for i := range fronts {
			f := &fronts[i]
			size := f.Queued()
			queued += size
			d := sched.next(f, dmax)
			if d < 0 {
				closing = closing || !f.closed
				continue
			}
			if bound < 0 || d < bound {
				bound = d
			}
			if kw < 0 || size < smallest {
				kw, smallest = i, size
			}
		}
		peak = max(peak, queued)
		if kw < 0 {
			break
		}
		if closing {
			for i := range fronts {
				if f := &fronts[i]; !f.closed && sched.next(f, dmax) < 0 {
					closeBall(i)
				}
			}
		}
		if left == 0 {
			break
		}
		// Checked only when the bound rises: it never falls and new roots
		// score at least it, so a k-th score that was >= bound stays so
		// until it rises. Strictly better, not equal: an undiscovered root
		// scoring exactly bound could still displace the k-th answer in
		// the (score, Key) tie-break order.
		if k > 0 && len(matches) >= k && p.score == nil && bound > checked {
			checked = bound
			SortMatches(matches)
			if matches[k-1].Score < float64(bound) {
				earlyStop = true
				break
			}
		}

		f, d := &fronts[kw], fronts[kw].Level+1
		if sched.finalize {
			// A finalize turn pops, settles and expands the last vertex of
			// the queue's nearest bucket.
			if f.hi == f.lo {
				f.Advance()
				d++
			}
			v := f.Pop()
			if !sched.rarest {
				work++
			}
			if sched.rarest || s.CountRoot(v) == len(q) {
				found(v)
			}
			if d <= dmax {
				for _, u := range g.In(v) {
					if s.Reach(kw, u, d) {
						f.Push(u)
					}
				}
			}
			continue
		}
		// A level turn expands the queue's whole level, then settles the
		// vertices it reached, in order.
		for _, v := range f.Cur() {
			if cancel.Cancelled() {
				break
			}
			if !sched.rarest {
				work++
			}
			for _, u := range g.In(v) {
				if s.Reach(kw, u, d) {
					f.Push(u)
				}
			}
		}
		f.Advance()
		for _, v := range f.Cur() {
			if sched.rarest || s.CountRoot(v) == len(q) {
				found(v)
			}
		}
	}
	s.cands = cands

	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.SetAttr("expanded", work).SetAttr("roots", len(matches)).SetAttr("early_topk", earlyStop)
	}
	led := obs.LedgerFromContext(ctx)
	led.AddExpanded(int64(work))
	led.NoteFrontier(int64(peak))
	SortMatches(matches)
	matches = Truncate(matches, k)
	for i := 0; i < len(matches) && !sched.rarest; i++ { // rarest's RootMatch found them
		matches[i].Nodes = s.WitnessNodes(g, matches[i].Root, q, matches[i].Dists)
	}
	return matches, cancel.Err()
}
