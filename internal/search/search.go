// Package search defines the plug-in contract between the BiG-index
// framework and keyword search algorithms (the f of the problem statement,
// Def. 2.3), plus the one bounded traversal (Scratch) that the implemented
// semantics (bkws, bidir, Blinks, r-clique; Sec. 5) share.
//
// The framework only assumes the index is label- and path-preserving; an
// algorithm therefore sees a plain graph — sometimes the data graph
// (baseline eval), sometimes a summary layer (eval_Ont) — and never needs to
// know which. Search produces Matches; when running under the index, the
// framework specializes a match's vertices back to the data graph and asks
// the algorithm to regenerate and verify concrete answers there
// (the "(3) answer generation and verification" step of Secs. 5.1–5.3).
package search

import (
	"bytes"
	"context"
	"slices"
	"strconv"

	"bigindex/internal/graph"
)

// Match is one query answer: a root (for rooted semantics), one matched
// vertex per query keyword, the per-keyword distances that define the score,
// and the score itself (lower is better).
//
// All vertex IDs are relative to the graph that produced the match: summary
// supernodes for matches found on an index layer, data vertices for final
// answers.
type Match struct {
	Root  graph.V
	Nodes []graph.V // Nodes[i] matches q[i]
	Dists []int     // Dists[i] is the distance contributing q[i]'s score; nil for semantics without per-keyword distances
	Score float64
}

// Key returns a canonical identity for the match, used to compare answer
// sets across evaluation strategies and to deduplicate during hierarchical
// answer generation.
//
// Rooted distance semantics (Dists != nil) identify an answer by its root
// and per-keyword distance profile — the distinct-root convention of Blinks;
// which concrete nearest node witnesses a distance is presentational.
// Node-set semantics (Dists == nil, e.g. r-clique) identify an answer by its
// matched nodes.
func (m Match) Key() string { return string(m.appendKey(make([]byte, 0, 32))) }

// appendKey appends Key's bytes to b: "r<root>|" then "<d>," per distance,
// or "<node>," per node when Dists is nil.
func (m Match) appendKey(b []byte) []byte {
	b = append(b, 'r')
	b = strconv.AppendUint(b, uint64(m.Root), 10)
	b = append(b, '|')
	if m.Dists != nil {
		for _, d := range m.Dists {
			b = strconv.AppendInt(b, int64(d), 10)
			b = append(b, ',')
		}
		return b
	}
	for _, n := range m.Nodes {
		b = strconv.AppendUint(b, uint64(n), 10)
		b = append(b, ',')
	}
	return b
}

// GenOptions toggles the answer-generation optimizations of Sec. 4.3; the
// ablation experiments (Figs. 17 and 18) flip them individually.
type GenOptions struct {
	// SpecOrder enables the specialization-order optimization (Sec. 4.3.2):
	// instantiate the candidate set with the fewest specializations first so
	// partial answers stay small and failures are detected early.
	SpecOrder bool
	// PathBased enables path-based answer generation (Sec. 4.3.3 / Algo 4):
	// specialize one path at a time, sharing traversals across partial
	// answers, instead of re-traversing per vertex (Algo 3).
	PathBased bool
	// K stops generation after K distinct final answers (Sec. 4.3.4);
	// 0 generates all.
	K int
	// MaxChecks caps the total qualification checks a generation session
	// may spend (0 = unlimited). Combinatorial semantics can face enormous
	// candidate products when answers are absent; the budget bounds the
	// tail at the cost of completeness, which top-k early-termination mode
	// already trades away.
	MaxChecks int
}

// Algorithm is a keyword search semantics pluggable into BiG-index.
type Algorithm interface {
	// Name identifies the algorithm in reports ("bkws", "blinks", "rclique").
	Name() string

	// Prepare builds whatever per-graph index the algorithm needs
	// (r-clique's neighbor index; nothing for bkws, bidir and Blinks) and
	// returns a handle for querying. Prepare time is index-construction
	// time, not query time.
	Prepare(g *graph.Graph) (Prepared, error)

	// NewGeneration opens an answer-generation session for Step 5 of Algo 2
	// on the data graph. A session persists across the generalized answers
	// of one query so path-based generation can share traversals (Sec.
	// 4.3.3's point: avoid duplicated computation across partial answers).
	NewGeneration(data *graph.Graph, q []graph.Label, opt GenOptions) Generation
}

// Generation generates and verifies concrete data-graph matches from the
// specialized candidates of generalized answers. Implementations must verify
// every emitted match against the data graph so that
// eval_Ont(G,Q,f) = eval(G,Q,f) (Thm 4.2).
type Generation interface {
	// Generate handles one generalized answer: rootCands are the layer-0
	// specializations of its root supernode (nil for rootless semantics);
	// cands[i] are the layer-0 specializations of the supernodes matched to
	// keyword q[i], already label-filtered per Prop 4.1.
	Generate(rootCands []graph.V, cands [][]graph.V) []Match

	// GenerateCtx is Generate with cooperative cancellation: the session
	// checks ctx at its qualification/verification checkpoints and, once
	// cancelled, stops generating and returns the (fully verified, hence
	// sound) matches produced so far. Callers detect the interruption
	// through ctx.Err(); the return value itself carries no error because
	// every returned match is a true answer regardless.
	GenerateCtx(ctx context.Context, rootCands []graph.V, cands [][]graph.V) []Match
}

// GenStats counts the paper-phase work of one generation session, in the
// vocabulary of Sec. 4.3: vertex-at-a-time qualification checks (Def. 4.2,
// Algo 3), path-based qualification checks answered from shared traversal
// maps (Def. 4.3, Algo 4), how many of each qualified, and early top-k
// terminations (Sec. 4.3.4). The framework aggregates these per query into
// core.Breakdown and the server exports them as counters, so bench numbers
// can be read against the paper's ablation figures.
type GenStats struct {
	VertexChecks    int64 // Def 4.2 qualification checks attempted
	VertexQualified int64 // … that qualified
	PathChecks      int64 // Def 4.3 shared-traversal lookups attempted
	PathQualified   int64 // … that qualified
	EarlyKStops     int64 // Sec 4.3.4 top-k early terminations
}

// StatsReporter is optionally implemented by Generation sessions that
// count their qualification work. Stats reports session totals so far (a
// session persists across the generalized answers of one query).
type StatsReporter interface {
	Stats() GenStats
}

// Prepared is a queryable per-graph instance of an Algorithm.
type Prepared interface {
	// Search returns matches of q ranked by ascending score. k <= 0 returns
	// every match (the exhaustive mode used by correctness tests and by
	// hierarchical evaluation when completeness is required); k > 0 returns
	// the top-k.
	Search(q []graph.Label, k int) ([]Match, error)

	// SearchCtx is Search with cooperative cancellation: the frontier /
	// iterator loops check ctx every few hundred expansions (via Canceller)
	// and, once cancelled, stop expanding and return the matches found so
	// far — still sorted and truncated — together with the context's error.
	// A non-nil error with a non-empty match slice therefore means "sound
	// but possibly incomplete", which the framework surfaces as a degraded
	// (partial) result rather than a failure.
	SearchCtx(ctx context.Context, q []graph.Label, k int) ([]Match, error)
}

// Rootless is optionally implemented by algorithms whose matches carry no
// meaningful root (node-set semantics such as r-clique); the framework then
// skips root-candidate specialization.
type Rootless interface {
	Rootless() bool
}

// SortMatches orders matches by ascending score, breaking ties by Key so
// results are deterministic. Each Key is built once per sort, into one
// shared buffer.
func SortMatches(ms []Match) {
	if len(ms) < 2 {
		return
	}
	type keyed struct {
		m      Match
		lo, hi int // the match's Key is keys[lo:hi]
	}
	ks := make([]keyed, len(ms))
	var keys []byte
	for i, m := range ms {
		lo := len(keys)
		keys = m.appendKey(keys)
		ks[i] = keyed{m, lo, len(keys)}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		switch {
		case a.m.Score < b.m.Score:
			return -1
		case a.m.Score > b.m.Score:
			return 1
		default:
			return bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi])
		}
	})
	for i := range ks {
		ms[i] = ks[i].m
	}
}

// Truncate returns the first k matches (k <= 0 returns ms unchanged).
func Truncate(ms []Match, k int) []Match {
	if k > 0 && len(ms) > k {
		return ms[:k]
	}
	return ms
}
