package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bigindex/internal/cost"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
)

// EvalOptions controls hierarchical query evaluation (eval_Ont). The isKey
// optimization of Sec. 4.3.1 (label-filtering keyword candidates at every
// layer on the way down) is not an option: it is always on. The evaluation
// layer is not one either: EvalLayerCtx takes it per query.
type EvalOptions struct {
	// Beta is the β weight of the query-layer cost model (Formula 4);
	// the experiments settle on 0.5.
	Beta float64
	// K returns only the top-k final answers (0 = all). Generalized answers
	// are then specialized and generated one equal-score level at a time,
	// and evaluation stops before a level once the k-th final scores
	// strictly below it (Sec. 4.3.4, made sound by Prop 5.2: specializing
	// never decreases distances). The result equals the first K answers of
	// exhaustive evaluation.
	K int
	// SpecOrder enables the specialization-order optimization (Sec. 4.3.2).
	SpecOrder bool
	// PathBased enables path-based answer generation (Sec. 4.3.3).
	PathBased bool
	// EarlyK enables the early-termination of Sec. 4.3.4: answer
	// generation stops as soon as K final answers exist, without waiting
	// for the score bound that guarantees exact top-k. The paper's
	// behaviour for "first k answers" retrieval; results are then
	// rank-guided approximations (exact when the semantics itself is
	// exhaustive per answer).
	EarlyK bool
	// DegreeExponent enables the density correction of Formula 4's
	// compression term (cost.NewTable) during layer selection (0 = the
	// paper's Formula 4). Distance-based semantics whose traversal cost
	// grows like degree^R should pass their R; rooted semantics typically
	// use 1.
	DegreeExponent int
	// GenBudget caps the qualification checks spent by answer generation
	// (search.GenOptions.MaxChecks); 0 = unlimited. Only meaningful with
	// EarlyK, which already trades completeness for latency.
	GenBudget int
	// GenLimit bounds how many generalized answers are requested from the
	// summary layer (0 = all). Exhaustive summary search guarantees
	// completeness (Lemma 4.1); for combinatorial semantics like r-clique
	// top-k, a bound keeps the summary search itself top-k-shaped, trading
	// the completeness guarantee for the original algorithm's
	// approximation behaviour (boost-dkws, Sec. 5.2).
	GenLimit int
}

// DefaultEvalOptions enables every optimization, β = 0.5.
func DefaultEvalOptions() EvalOptions {
	return EvalOptions{Beta: 0.5, SpecOrder: true, PathBased: true}
}

// Breakdown reports where evaluation time went, matching the query
// performance breakdown of Figs. 10–14 (summary search / specialization +
// pruning / answer generation).
type Breakdown struct {
	Layer      int           // layer the query was evaluated at
	Costs      cost.Table    // Formula 4 at every layer, pinned queries too
	Select     time.Duration // layer selection
	Search     time.Duration // eval on the summary graph
	Specialize time.Duration // Spec + Prop 4.1 pruning, layers m..1
	Generate   time.Duration // answer generation + verification at layer 0
	GenAnswers int           // generalized answers found at layer m

	// Paper-phase counters (the flight recorder's vocabulary): how the
	// query exercised the machinery of Secs. 4.2–4.3.
	Prop41Checked  int             // candidates examined by the Prop 4.1 label filter
	Prop41Filtered int             // … dropped by it
	SpecFanout     []int           // candidates emerging from each layer-descent step
	EarlyStops     int             // Sec. 4.3.4 first-k stops in the eval loop
	BoundStops     int             // Prop 5.2 score-bound top-k stops
	Gen            search.GenStats // Def 4.2/4.3 qualification work during generation
}

// Evaluator runs eval_Ont(G, Q, f) for one algorithm over one index,
// caching the algorithm's per-layer prepared indexes across queries.
// Concurrent calls are safe (the server shares one evaluator per algorithm
// across requests): preparation is serialized behind mu, the options are
// fixed at construction, and everything else consulted during evaluation
// is immutable.
type Evaluator struct {
	idx      *Index
	algo     search.Algorithm
	opt      EvalOptions
	mu       sync.Mutex
	prepared map[int]search.Prepared
}

// NewEvaluator creates an evaluator for algo over idx.
func NewEvaluator(idx *Index, algo search.Algorithm, opt EvalOptions) *Evaluator {
	return &Evaluator{idx: idx, algo: algo, opt: opt, prepared: make(map[int]search.Prepared)}
}

// Options returns the evaluator's options (copy).
func (e *Evaluator) Options() EvalOptions { return e.opt }

// Index returns the index the evaluator runs over (the server's
// calibration audit normalizes observed work by its data-graph size).
func (e *Evaluator) Index() *Index { return e.idx }

func (e *Evaluator) preparedFor(m int) (search.Prepared, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.prepared[m]; ok {
		return p, nil
	}
	p, err := e.algo.Prepare(e.idx.LayerGraph(m))
	if err != nil {
		return nil, fmt.Errorf("core: preparing %s at layer %d: %w", e.algo.Name(), m, err)
	}
	e.prepared[m] = p
	return p, nil
}

// Eval is EvalLayerCtx without a context, at the layer the cost model
// picks.
func (e *Evaluator) Eval(q []graph.Label) ([]search.Match, *Breakdown, error) {
	return e.EvalLayerCtx(context.Background(), q, -1)
}

// EvalLayerCtx implements Algo 2 (hierarchical query processing):
//
//  1. generalize Q to layer m and evaluate f there; layer < 0 selects the
//     optimal layer with the cost model (Def. 4.1, Formula 4), layer >= 0
//     pins it for this query (the server's &layer= parameter, Fig. 19's
//     layer sweep);
//  2. specialize each generalized answer's root and keyword supernodes
//     layer by layer (Spec), pruning keyword candidates whose label is not
//     the appropriately generalized keyword at every layer (Prop 4.1 with
//     the isKey optimization, Sec. 4.3.1);
//  3. generate and verify concrete answers on the data graph through the
//     algorithm's Generation session (Step 5 / Algos 3 and 4);
//  4. rank, deduplicate, and apply top-k early termination.
//
// Tracing: when ctx carries an obs span (obs.ContextWithSpan), the
// evaluation phases attach to it as a nested tree — Select, Search,
// Specialize (with per-layer Spec/Prop-4.1 children), Generate — mirroring
// the query-cost breakdown of the paper's Figs. 10–14. Without a span in
// ctx a detached trace is used, so Breakdown timings are always
// span-derived and always populated.
//
// Cancellation: ctx is threaded into the algorithm's SearchCtx/GenerateCtx
// loops and checked between specialize/generate steps. When ctx expires
// mid-evaluation, EvalLayerCtx returns the final answers accumulated so far
// together with the context's error. The partial result is sound — every
// returned match was generated and verified against the data graph, and
// specialization only refines already-found generalized answers (Prop 5.2)
// — it is merely possibly incomplete, which callers surface as a degraded
// answer set rather than a failure.
func (e *Evaluator) EvalLayerCtx(ctx context.Context, q []graph.Label, layer int) ([]search.Match, *Breakdown, error) {
	parent := obs.SpanFromContext(ctx)
	if parent == nil {
		parent = obs.NewTrace("eval").Root()
	}
	// The per-query resource ledger, when the caller threaded one: the
	// search algorithms flush their expansion counts into it, eval
	// attributes them to the searched layer, and the specialize/generate
	// phases add their own per-layer work units.
	led := obs.LedgerFromContext(ctx)
	bd := &Breakdown{}
	tally := &specTally{}

	// (1) Layer selection. The cost table is built for pinned layers too:
	// the calibration audit reads the pinned layer's terms from it.
	sel := parent.StartChild("Select")
	m := layer
	if m >= e.idx.NumLayers() {
		sel.End()
		return nil, nil, fmt.Errorf("core: layer %d out of range (index has %d)", m, e.idx.NumLayers())
	}
	bd.Costs = cost.NewTable(e.idx, q, e.opt.DegreeExponent)
	if m < 0 {
		m = bd.Costs.Argmin(e.opt.Beta, 1-e.opt.Beta)
	}
	bd.Layer = m
	qGen := bd.Costs[m].Gen
	sel.SetAttr("layer", m).SetAttr("keywords", len(q))
	bd.Select = sel.End().Duration()

	// (2) Evaluate f on the summary graph at layer m. Exhaustive mode: one
	// generalized answer can specialize to zero or many final answers, so
	// completeness requires every generalized answer; top-k early
	// termination happens during generation below.
	srch := parent.StartChild("Search").SetAttr("layer", m)
	prep, err := e.preparedFor(m)
	if err != nil {
		srch.End()
		return nil, nil, err
	}
	limit := e.opt.GenLimit
	if m == 0 {
		limit = e.opt.K
	}
	// The Search child becomes the ambient span so the algorithm's own
	// counters (expanded/early_topk, …) attach to it rather than to the
	// query root. The ledger's expansion counter is bracketed around the
	// call so the search's work lands on the searched layer.
	expBefore := led.Expanded()
	gens, err := prep.SearchCtx(obs.ContextWithSpan(ctx, srch), qGen, limit)
	led.AddLayerWork(m, led.Expanded()-expBefore)
	if err != nil && ctx.Err() == nil {
		// A real search failure, not a cancellation.
		srch.End()
		return nil, nil, err
	}
	bd.GenAnswers = len(gens)
	srch.SetAttr("generalized_answers", len(gens))
	bd.Search = srch.End().Duration()

	if m == 0 {
		// Evaluating at the data layer is direct evaluation; on
		// cancellation the prefix found so far is the degraded answer set.
		search.SortMatches(gens)
		return search.Truncate(gens, e.opt.K), bd, err
	}
	if err != nil {
		// Interrupted during summary search: nothing has been specialized
		// to the data graph yet, so there are no finals to salvage.
		return nil, bd, err
	}

	// (3) Specialize + generate, one batch of generalized answers at a time.
	// Exhaustive mode (K <= 0) runs one batch of every answer. Top-k mode
	// takes the answers, which arrive sorted by score, one equal-score level
	// per batch and checks its stop rules between levels.
	genOpt := search.GenOptions{SpecOrder: e.opt.SpecOrder, PathBased: e.opt.PathBased, MaxChecks: e.opt.GenBudget}
	if e.opt.EarlyK {
		genOpt.K = e.opt.K
	}
	session := e.algo.NewGeneration(e.idx.Data(), q, genOpt)
	rootless := isRootless(e.algo)
	var finals []search.Match
	seen := make(map[string]bool)
	for lo := 0; ; {
		hi := len(gens)
		if e.opt.K > 0 {
			for hi = lo; hi < len(gens) && gens[hi].Score == gens[lo].Score; hi++ {
			}
		}
		batch := gens[lo:hi]
		lo = hi

		// Generalized answers share supernodes heavily, so a batch
		// specializes the union once per role instead of per answer:
		// identical candidates, far fewer Down-map expansions.
		spec := parent.StartChild("Specialize").SetAttr("layer", m)
		rootSupers := make([]graph.V, 0, len(batch))
		kwSupers := make([][]graph.V, len(q))
		for _, ga := range batch {
			rootSupers = append(rootSupers, ga.Root)
			for i, node := range ga.Nodes {
				kwSupers[i] = append(kwSupers[i], node)
			}
		}
		var rootCands []graph.V
		if !rootless {
			rootCands = e.idx.specializeRootSet(rootSupers, m, spec, tally, led)
		}
		cands := make([][]graph.V, len(q))
		for i := range q {
			cands[i] = e.idx.specializeKeywordSet(kwSupers[i], m, q[i], spec, tally, led)
		}
		spec.SetAttr("root_candidates", len(rootCands))
		tally.fill(bd, spec)
		bd.Specialize += spec.End().Duration()

		gen := parent.StartChild("Generate")
		before := len(finals)
		for _, fm := range session.GenerateCtx(ctx, rootCands, cands) {
			key := fm.Key()
			if !seen[key] {
				seen[key] = true
				finals = append(finals, fm)
			}
		}
		bd.Gen = genStatsOf(session)
		gen.SetAttr("finals", len(finals)-before)
		setGenAttrs(gen, bd.Gen)
		bd.Generate += gen.End().Duration()

		// Between batches, so only top-k mode gets here with gens left.
		// Cancellation checkpoint first: the finals accumulated so far are
		// complete, verified answers (Prop 5.2), so stopping here degrades
		// the answer set without unsoundness.
		if lo == len(gens) || ctx.Err() != nil {
			break
		}
		if len(finals) < e.opt.K {
			continue
		}
		if e.opt.EarlyK {
			bd.EarlyStops++
			break // Sec. 4.3.4: stop at the first k answers
		}
		// Prop 5.2: any answer specialized from this level or a later one
		// scores >= the level's score. Strictly better, not equal: an unseen
		// answer scoring exactly the level's score could still displace the
		// k-th final in the (score, Key) tie-break order, so only a strict
		// bound makes the result exactly the exhaustive answer's top-k prefix.
		search.SortMatches(finals)
		if finals[e.opt.K-1].Score < gens[lo].Score {
			bd.BoundStops++
			break
		}
	}
	led.AddLayerWork(0, bd.Gen.VertexChecks+bd.Gen.PathChecks)

	search.SortMatches(finals)
	return search.Truncate(finals, e.opt.K), bd, context.Cause(ctx)
}

// genStatsOf reads the session's qualification counters when the
// Generation implements search.StatsReporter (all built-ins do).
func genStatsOf(s search.Generation) search.GenStats {
	if sr, ok := s.(search.StatsReporter); ok {
		return sr.Stats()
	}
	return search.GenStats{}
}

// setGenAttrs mirrors the session's Def 4.2/4.3 qualification counters so
// far onto a batch's Generate span so stored traces carry them.
func setGenAttrs(sp *obs.Span, st search.GenStats) {
	if sp == nil {
		return
	}
	sp.SetAttr("vertex_checks", st.VertexChecks).
		SetAttr("vertex_qualified", st.VertexQualified).
		SetAttr("path_checks", st.PathChecks).
		SetAttr("path_qualified", st.PathQualified)
}

// fill copies the tally into the breakdown and mirrors the query's Prop
// 4.1 totals so far onto sp, the Specialize span of the batch just run.
func (t *specTally) fill(bd *Breakdown, sp *obs.Span) {
	bd.Prop41Checked = t.prop41Checked
	bd.Prop41Filtered = t.prop41Filtered
	bd.SpecFanout = t.fanout
	if sp != nil && t.prop41Checked > 0 {
		sp.SetAttr("prop41_checked", t.prop41Checked).
			SetAttr("prop41_filtered", t.prop41Filtered)
	}
}

// isRootless reports whether the algorithm's matches have no meaningful
// root (node-set semantics like r-clique); the evaluator then skips root
// specialization entirely.
func isRootless(a search.Algorithm) bool {
	r, ok := a.(search.Rootless)
	return ok && r.Rootless()
}

// Direct evaluates f on the data graph without the index (the baseline
// eval(G, Q, f)); the prepared data-graph index is cached like layers.
func (e *Evaluator) Direct(q []graph.Label, k int) ([]search.Match, error) {
	return e.DirectCtx(context.Background(), q, k)
}

// DirectCtx is Direct with tracing and cooperative cancellation: the whole
// baseline evaluation is one "Direct" span under the context's span, if
// any, and when ctx expires mid-search the matches found so far come back
// with the context's error (sound but possibly incomplete, like EvalLayerCtx).
func (e *Evaluator) DirectCtx(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
	sp := obs.SpanFromContext(ctx).StartChild("Direct").SetAttr("k", k)
	defer sp.End()
	prep, err := e.preparedFor(0)
	if err != nil {
		return nil, err
	}
	ms, err := prep.SearchCtx(obs.ContextWithSpan(ctx, sp), q, k)
	sp.SetAttr("matches", len(ms))
	return ms, err
}
