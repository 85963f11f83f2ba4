package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/generalize"
	"bigindex/internal/sampling"
	"bigindex/internal/search"
)

// RunFig16 reproduces Fig. 16: the estimated compression ratio as a
// function of the sample count n, against the exact ratio. The paper finds
// the estimate stabilizes past n ≈ 400.
func RunFig16() (*Report, error) {
	f, err := GetFixture("yago-s")
	if err != nil {
		return nil, err
	}
	if f.Index.NumLayers() < 2 {
		return nil, fmt.Errorf("fig16: no layer-1 configuration")
	}
	cfg := f.Index.Layer(1).Config
	est := sampling.NewEstimator(f.DS.Graph, 2, 1600, 1234)
	exact := sampling.ExactCompress(f.DS.Graph, cfg)

	r := &Report{ID: "Fig 16", Title: "Estimated compress vs sample size (yago-s, layer-1 config)",
		Header: []string{"n", "estimate", "exact", "abs err"}}
	for _, n := range []int{25, 50, 100, 200, 400, 800, 1600} {
		e := est.EstimateCompressPrefix(cfg, n)
		r.AddRow(n, fmt.Sprintf("%.4f", e), fmt.Sprintf("%.4f", exact), fmt.Sprintf("%.4f", abs(e-exact)))
	}
	r.Notef("estimates rank configurations; absolute offset is fine as long as the ordering is stable (Exp-4)")
	return r, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ablation times the yago-s workload for one algorithm under two option
// sets.
func ablation(id, title, labelOff, labelOn string, algo search.Algorithm, off, on core.EvalOptions) (*Report, error) {
	f, err := GetFixture("yago-s")
	if err != nil {
		return nil, err
	}
	r := &Report{ID: id, Title: title,
		Header: []string{"Query", labelOff, labelOn, "improvement"}}
	evOff := core.NewEvaluator(f.Index, algo, off)
	evOn := core.NewEvaluator(f.Index, algo, on)
	var sumOff, sumOn time.Duration
	for _, q := range f.Queries {
		if _, _, err := evOff.Eval(q.Keywords); err != nil { // warmup
			return nil, err
		}
		if _, _, err := evOn.Eval(q.Keywords); err != nil {
			return nil, err
		}
		tOff, err := timeIt(QueryRepeats, func() error { _, _, e := evOff.Eval(q.Keywords); return e })
		if err != nil {
			return nil, err
		}
		tOn, err := timeIt(QueryRepeats, func() error { _, _, e := evOn.Eval(q.Keywords); return e })
		if err != nil {
			return nil, err
		}
		sumOff += tOff
		sumOn += tOn
		r.AddRow(q.ID, tOff, tOn, pct(tOff, tOn))
	}
	r.Notef("average improvement: %s", pct(sumOff, sumOn))
	return r, nil
}

// RunFig17 reproduces Fig. 17: the specialization-order optimization on/off
// (paper: 14.8% average improvement). The ordering binds during answer
// generation's partial-answer enlargement, so the ablation runs r-clique
// (whose generation enumerates tuples; Sec. 4.3.2's Example 4.2 is exactly
// this case) at a fixed summary layer so generation always executes.
func RunFig17() (*Report, error) {
	off := RCliqueEvalOptions()
	off.SpecOrder = false
	on := off
	on.SpecOrder = true
	return ablation("Fig 17", "Specialization order optimization (yago-s, r-clique)",
		"order off", "order on", NewRClique(), off, on)
}

// RunFig18 reproduces Fig. 18: path-based answer generation on/off (paper:
// 21.7% average improvement). Path-based generation shares one traversal
// per keyword across all partial answers instead of re-traversing per
// vertex check (Algo 4 vs Algo 3).
func RunFig18() (*Report, error) {
	off := RCliqueEvalOptions()
	off.PathBased = false
	on := off
	on.PathBased = true
	return ablation("Fig 18", "Path-based answer generation (yago-s, r-clique)",
		"ans_graph_gen", "p_ans_graph_gen", NewRClique(), off, on)
}

// RunFig19 reproduces Fig. 19 and Exp-6: query time at every layer m, the
// cost model's predicted layer, and the observed best layer. Evaluating at
// layer 2 corresponds to the single-summarization baseline of Fan et al.
// [10], which the paper shows is always suboptimal for some queries.
func RunFig19() (*Report, error) {
	f, err := GetFixture("yago-s")
	if err != nil {
		return nil, err
	}
	h := f.Index.NumLayers()
	header := []string{"Query"}
	for m := 0; m < h; m++ {
		header = append(header, fmt.Sprintf("L%d", m))
	}
	header = append(header, "predicted", "best")
	r := &Report{ID: "Fig 19", Title: "Query performance by layer m (yago-s, Blinks, β = 0.5)", Header: header}

	opt := core.DefaultEvalOptions()
	opt.DegreeExponent = 1
	ev := core.NewEvaluator(f.Index, NewBlinks(), opt)
	ctx := context.Background()
	correct := 0
	for _, q := range f.Queries {
		times := make([]time.Duration, h)
		best := 0
		for m := 0; m < h; m++ {
			evalAt := func() error { _, _, e := ev.EvalLayerCtx(ctx, q.Keywords, m); return e }
			if err := evalAt(); err != nil { // warmup
				return nil, err
			}
			t, err := timeIt(QueryRepeats, evalAt)
			if err != nil {
				return nil, err
			}
			times[m] = t
			if t < times[best] {
				best = m
			}
		}
		// The model's pick.
		_, bd, err := ev.Eval(q.Keywords)
		if err != nil {
			return nil, err
		}
		if bd.Layer == best {
			correct++
		}
		row := []interface{}{q.ID}
		for _, t := range times {
			row = append(row, t)
		}
		row = append(row, bd.Layer, best)
		r.AddRow(row...)
	}
	r.Notef("optimal-layer prediction accuracy: %d/%d (paper: 75%%)", correct, len(f.Queries))
	r.Notef("Exp-6: layer 2 is the Fan et al. [10] single-bisimulation baseline; compare its column against the best layer")
	return r, nil
}

// RunExp3 reproduces Exp-3: index characteristics — construction time and
// total index size per dataset.
func RunExp3() (*Report, error) {
	r := &Report{ID: "Exp 3", Title: "BiG-index construction time and size",
		Header: []string{"Dataset", "layers", "construction", "index size (|V|+|E|)", "data size"}}
	for _, name := range append(append([]string{}, RealNames...), SynthNames...) {
		f, err := GetFixture(name)
		if err != nil {
			return nil, err
		}
		r.AddRow(name, f.Index.NumLayers()-1, f.BuildTime, f.Index.TotalSize(), f.DS.Graph.Size())
	}
	r.Notef("paper: 20min (YAGO3), 6.4h (DBpedia), 6.6h (IMDB) in Java at ~100x scale")
	return r, nil
}

// RunExp4 reproduces Exp-4: cost-model effectiveness. (a) Spearman rank
// correlation between sampled and exact compress over 100 random
// configurations (paper: r_s = 0.541 > 0.326 critical at α = 0.001);
// (b) the optimal-layer prediction accuracy is reported by Fig 19.
func RunExp4() (*Report, error) {
	f, err := GetFixture("synt-10k")
	if err != nil {
		return nil, err
	}
	g, ont := f.DS.Graph, f.DS.Ont
	est := sampling.NewEstimator(g, 2, 400, 555)
	rng := rand.New(rand.NewSource(556))

	// 100 random configurations: random subsets of term->type mappings.
	var pool []generalize.Mapping
	for _, l := range g.DistinctLabels() {
		for _, sup := range ont.DirectSupertypes(l) {
			pool = append(pool, generalize.Mapping{From: l, To: sup})
		}
	}
	var estimates, exacts []float64
	for c := 0; c < 100; c++ {
		keep := 1 + rng.Intn(len(pool))
		perm := rng.Perm(len(pool))
		var ms []generalize.Mapping
		for _, i := range perm[:keep] {
			ms = append(ms, pool[i])
		}
		cfg, err := generalize.NewConfig(ms)
		if err != nil {
			continue
		}
		estimates = append(estimates, est.EstimateCompress(cfg))
		exacts = append(exacts, sampling.ExactCompress(g, cfg))
	}
	rs := sampling.Spearman(estimates, exacts)

	r := &Report{ID: "Exp 4", Title: "Cost model effectiveness (synt-10k)",
		Header: []string{"Metric", "Value"}}
	r.AddRow("configurations scored", len(estimates))
	r.AddRow("Spearman r_s (estimate vs exact compress)", fmt.Sprintf("%.3f", rs))
	r.AddRow("critical value (α=0.001, n=100)", "0.326")
	verdict := "estimate is a significant indicator"
	if rs <= 0.326 {
		verdict = "below critical value"
	}
	r.AddRow("verdict", verdict)
	r.Notef("paper: r_s = 0.541; optimal-layer accuracy is reported by fig19")
	return r, nil
}

// RunHeadline verifies the abstract's claims: BiG-index reduces Blinks
// runtimes by ~50.5%% and r-clique by ~29.5%% on average, and r-clique's
// neighbor index is infeasible on the IMDB-shaped dataset.
func RunHeadline() (*Report, error) {
	r := &Report{ID: "Headline", Title: "Average runtime reduction by BiG-index",
		Header: []string{"Algorithm", "Dataset", "direct (total)", "boosted (total)", "reduction"}}

	type cfg struct {
		algo    string
		dataset string
	}
	var blTotalD, blTotalB, rcTotalD, rcTotalB time.Duration
	for _, c := range []cfg{
		{"blinks", "yago-s"}, {"blinks", "dbpedia-s"}, {"blinks", "imdb-s"},
		{"rclique", "yago-s"}, {"rclique", "dbpedia-s"},
	} {
		f, err := GetFixture(c.dataset)
		if err != nil {
			return nil, err
		}
		var sumD, sumB time.Duration
		if c.algo == "blinks" {
			ev := core.NewEvaluator(f.Index, NewBlinks(), BlinksEvalOptions(c.dataset))
			for _, q := range f.Queries {
				d, b, _, err := evalPair(ev, q.Keywords, 0)
				if err != nil {
					return nil, err
				}
				sumD += d
				sumB += b
			}
			blTotalD += sumD
			blTotalB += sumB
		} else {
			ev := core.NewEvaluator(f.Index, NewRClique(), RCliqueEvalOptions())
			for _, q := range f.Queries {
				d, b, _, err := evalPair(ev, q.Keywords, 10)
				if err != nil {
					return nil, err
				}
				sumD += d
				sumB += b
			}
			rcTotalD += sumD
			rcTotalB += sumB
		}
		r.AddRow(c.algo, c.dataset, sumD, sumB, pct(sumD, sumB))
	}
	r.AddRow("blinks", "average", blTotalD, blTotalB, pct(blTotalD, blTotalB))
	r.AddRow("rclique", "average", rcTotalD, rcTotalB, pct(rcTotalD, rcTotalB))

	// The IMDB infeasibility claim: project the neighbor index to the real
	// IMDB's 1.67M vertices.
	imdb, err := GetFixture("imdb-s")
	if err != nil {
		return nil, err
	}
	avgRow, total := ProjectFullScaleEntries(NewRClique(), imdb, 1_673_076)
	r.Notef("paper: Blinks 50.5%% average, r-clique 29.5%% average")
	r.Notef("r-clique on IMDB at full scale: projected avg neighborhood m ≈ %.0fK nodes, neighbor list ≈ %.1f TB (paper: m ≈ 105K, 16 TB) — r-clique cannot handle the dataset", avgRow/1000, total*8/1e12)
	return r, nil
}
