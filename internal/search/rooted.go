package search

import (
	"context"
	"slices"

	"bigindex/internal/graph"
)

// RootedGeneration is the answer generation + verification step (Sec. 5.1
// step (3), shared by boost-bkws and boost-rkws): candidate roots obtained
// by specializing generalized answer roots are verified against the data
// graph, and per-keyword minimum distances are recomputed there, so every
// emitted match is a true answer (soundness half of Thm 4.2).
//
// Two strategies mirror the paper's ablation:
//
//   - vertex-at-a-time (Algo 3): each (root, keyword) check runs its own
//     bounded forward traversal, re-walking shared neighborhoods — the
//     duplicated computation Sec. 4.3.3 calls out. The specialization-order
//     optimization (Sec. 4.3.2) orders keywords most-selective-first so
//     failing roots are abandoned after the cheapest possible work.
//
//   - path-at-a-time (Algo 4): one multi-source backward traversal per
//     keyword, shared across every candidate root of a GenerateCtx call
//     (all generalized answers, when K = 0); verifying a root is then n
//     row lookups.
type RootedGeneration struct {
	g       *graph.Graph
	q       []graph.Label
	dmax    int
	opt     GenOptions
	score   ScoreFunc
	order   []int // keyword check order
	emitted map[graph.V]bool
	count   int
	// Adaptive switch for path-based mode: building the per-keyword
	// distance rows costs roughly the size of the postings' d_max
	// neighborhoods, which only amortizes over enough candidate roots.
	// Until `verified` exceeds `pathThreshold` the session verifies
	// vertex-at-a-time even in path-based mode, then builds each rare
	// keyword's row once per GenerateCtx call and answers by lookup.
	verified      int
	pathThreshold int
	stats         GenStats
}

// ScoreFunc maps a per-keyword distance vector to a ranking score (lower is
// better). The default, SumDistances, is the Σ_i dist(r, p_i) of He et al.;
// Sec. 5.3's ranking API lets callers supply their own. Rank preservation
// across layers (Prop 5.3) is guaranteed only for distance-based scores.
type ScoreFunc func(dists []int) float64

// SumDistances is the default distance-based score.
func SumDistances(dists []int) float64 {
	s := 0
	for _, d := range dists {
		s += d
	}
	return float64(s)
}

// NewRootedGeneration opens a rooted generation session. A nil score uses
// SumDistances.
func NewRootedGeneration(g *graph.Graph, q []graph.Label, dmax int, score ScoreFunc, opt GenOptions) *RootedGeneration {
	if score == nil {
		score = SumDistances
	}
	rg := &RootedGeneration{
		g:       g,
		q:       q,
		dmax:    dmax,
		opt:     opt,
		score:   score,
		emitted: make(map[graph.V]bool),
	}
	total := 0
	for _, l := range q {
		total += g.LabelCount(l)
	}
	rg.pathThreshold = max(4, total/16)
	rg.order = make([]int, len(q))
	for i := range q {
		rg.order[i] = i
	}
	if opt.SpecOrder {
		// Fewest specializations first: the label with the smallest posting
		// list is the most selective check.
		slices.SortStableFunc(rg.order, func(a, b int) int {
			return g.LabelCount(q[a]) - g.LabelCount(q[b])
		})
	}
	return rg
}

// Generate implements Generation. Only rootCands matter for rooted
// semantics: per-keyword minimum distances must range over every q_i-labeled
// vertex of the data graph (not only the specialization of the one matched
// supernode), so keyword candidates serve specialization-order statistics
// but not filtering.
func (rg *RootedGeneration) Generate(rootCands []graph.V, cands [][]graph.V) []Match {
	return rg.GenerateCtx(context.Background(), rootCands, cands)
}

// GenerateCtx implements Generation: each candidate-root verification is a
// cancellation checkpoint, so a cancelled context stops the session after
// the current root and returns the verified (sound) matches so far.
func (rg *RootedGeneration) GenerateCtx(ctx context.Context, rootCands []graph.V, cands [][]graph.V) []Match {
	cancel := NewCanceller(ctx)
	s := GetScratch(rg.g.NumVertices(), len(rg.q))
	defer PutScratch(s)
	var out []Match
	for _, r := range rootCands {
		if rg.opt.K > 0 && rg.count >= rg.opt.K {
			rg.stats.EarlyKStops++
			break
		}
		if cancel.Cancelled() {
			break
		}
		if rg.emitted[r] {
			continue
		}
		rg.emitted[r] = true
		m, ok := rg.verify(s, r)
		if ok {
			out = append(out, m)
			rg.count++
		}
	}
	return out
}

func (rg *RootedGeneration) verify(s *Scratch, r graph.V) (Match, bool) {
	rg.verified++
	useRows := rg.opt.PathBased && rg.verified > rg.pathThreshold
	dists := make([]int, len(rg.q))
	for _, i := range rg.order {
		d := -1
		if useRows && rg.rowWorthwhile(i) {
			// Rare keyword: one shared backward traversal from its small
			// posting list answers every root by lookup. Row i is filled
			// in this call's search iff its sources read distance 0.
			if posting := rg.g.VerticesWithLabel(rg.q[i]); len(posting) > 0 {
				if _, ok := s.Dist(i, posting[0]); !ok {
					s.KeywordBall(rg.g, i, posting, rg.dmax, In)
				}
			}
			rg.stats.PathChecks++
			if dd, ok := s.Dist(i, r); ok {
				d = dd
				rg.stats.PathQualified++
			}
		} else {
			// Popular keyword: a forward probe exits at the first
			// occurrence, usually within a hop or two — cheaper than
			// filling its near-global distance row.
			rg.stats.VertexChecks++
			if ds, _, ok := s.MinDistToLabels(rg.g, r, rg.q[i:i+1], rg.dmax); ok {
				d = ds[0]
				rg.stats.VertexQualified++
			}
		}
		if d < 0 {
			return Match{}, false
		}
		dists[i] = d
	}
	return Match{
		Root:  r,
		Nodes: s.WitnessNodes(rg.g, r, rg.q, dists),
		Dists: dists,
		Score: rg.score(dists),
	}, true
}

// Stats implements StatsReporter.
func (rg *RootedGeneration) Stats() GenStats { return rg.stats }

// rowWorthwhile decides per keyword whether the shared distance row pays:
// a row's cost grows with the posting's d_max neighborhood, while a
// per-root probe's cost shrinks as the label gets more frequent (it exits
// at the first occurrence). Rare keywords therefore want the row.
func (rg *RootedGeneration) rowWorthwhile(i int) bool {
	n := rg.g.NumVertices()
	return rg.g.LabelCount(rg.q[i])*24 <= n
}
