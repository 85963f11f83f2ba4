package bench

import (
	"fmt"
	"slices"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/graph"
)

// Runner is an experiment entry point.
type Runner func() (*Report, error)

// Experiments maps experiment IDs (table2, fig10, …) to runners.
var Experiments = map[string]Runner{
	"table2":      RunTable2,
	"table3":      RunTable3,
	"table4":      RunTable4,
	"fig9":        RunFig9,
	"fig10":       func() (*Report, error) { return runBlinksFig("fig10", "yago-s") },
	"fig11":       func() (*Report, error) { return runBlinksFig("fig11", "dbpedia-s") },
	"fig12":       func() (*Report, error) { return runBlinksFig("fig12", "imdb-s") },
	"fig13":       func() (*Report, error) { return runRcliqueFig("fig13", "yago-s") },
	"fig14":       func() (*Report, error) { return runRcliqueFig("fig14", "dbpedia-s") },
	"fig15":       RunFig15,
	"fig16":       RunFig16,
	"fig17":       RunFig17,
	"fig18":       RunFig18,
	"fig19":       RunFig19,
	"exp3":        RunExp3,
	"exp4":        RunExp4,
	"headline":    RunHeadline,
	"summarizers": RunSummarizers,
}

// ExperimentOrder is the canonical run order for `benchrunner -exp all`.
var ExperimentOrder = []string{
	"table2", "table3", "table4", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"fig16", "fig17", "fig18", "fig19",
	"exp3", "exp4", "headline", "summarizers",
}

// RunTable2 reproduces Table 2: dataset statistics.
func RunTable2() (*Report, error) {
	r := &Report{ID: "Table 2", Title: "Statistics of real-world and synthetic datasets (scaled stand-ins)",
		Header: []string{"Dataset", "|V|", "|E|", "|V_ont|", "|E_ont|"}}
	for _, name := range append(append([]string{}, RealNames...), SynthNames...) {
		f, err := GetFixture(name)
		if err != nil {
			return nil, err
		}
		r.AddRow(name, f.DS.Graph.NumVertices(), f.DS.Graph.NumEdges(),
			f.DS.Ont.NumTypes(), f.DS.Ont.NumEdges())
	}
	r.Notef("paper scale ≈ 100-130x larger; shapes (density order, ontology depth) preserved")
	return r, nil
}

// RunTable3 reproduces Table 3: layer-1 index size and size ratio.
func RunTable3() (*Report, error) {
	r := &Report{ID: "Table 3", Title: "Index size of layer 1 of BiG-index",
		Header: []string{"Dataset", "Layer1 |V|", "Layer1 |E|", "Size ratio"}}
	for _, name := range append(append([]string{}, RealNames...), SynthNames...) {
		f, err := GetFixture(name)
		if err != nil {
			return nil, err
		}
		st := f.Index.Stats()
		if len(st.Layers) < 2 {
			r.AddRow(name, "-", "-", "no layer built")
			continue
		}
		l1 := st.Layers[1]
		r.AddRow(name, l1.Vertices, l1.Edges, fmt.Sprintf("%.4f", l1.Ratio))
	}
	r.Notef("paper: YAGO3 0.2785, DBpedia 0.6052, IMDB 0.3666, synt ≤ 0.8775")
	return r, nil
}

// RunTable4 reproduces Table 4: the benchmarked queries with per-keyword
// occurrence counts on the YAGO3 stand-in.
func RunTable4() (*Report, error) {
	f, err := GetFixture("yago-s")
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "Table 4", Title: "Benchmarked queries (yago-s)",
		Header: []string{"ID", "Keywords", "Counts in the data graph"}}
	for _, q := range f.Queries {
		r.AddRow(q.ID, fmt.Sprintf("%v", q.Names(f.DS.Graph.Dict())), fmt.Sprintf("%v", q.Counts))
	}
	return r, nil
}

// RunFig9 reproduces Fig. 9: summary graph sizes (|V|+|E|) per layer.
func RunFig9() (*Report, error) {
	r := &Report{ID: "Fig 9", Title: "Summary graph sizes (|V|+|E|) at different layers",
		Header: []string{"Dataset", "L0", "L1", "L2", "L3", "L4", "L5", "L6", "L7"}}
	for _, name := range append(append([]string{}, RealNames...), SynthNames...) {
		f, err := GetFixture(name)
		if err != nil {
			return nil, err
		}
		row := []interface{}{name}
		for m := 0; m <= 7; m++ {
			if m < f.Index.NumLayers() {
				row = append(row, f.Index.LayerGraph(m).Size())
			} else {
				row = append(row, "-")
			}
		}
		r.AddRow(row...)
	}
	r.Notef("higher layers are strictly smaller; compression gain diminishes with layer number (Exp-3)")
	return r, nil
}

// timeIt runs fn repeats times and returns the median duration (robust to
// GC pauses, which dwarf sub-millisecond queries).
func timeIt(repeats int, fn func() error) (time.Duration, error) {
	if repeats < 1 {
		repeats = 1
	}
	times := make([]time.Duration, repeats)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start)
	}
	slices.Sort(times)
	return times[repeats/2], nil
}

// evalPair times a query directly and through BiG-index, returning the mean
// durations and the last boosted breakdown.
func evalPair(ev *core.Evaluator, q []graph.Label, k int) (direct, boosted time.Duration, bd *core.Breakdown, err error) {
	// Warmup builds the per-layer prepared indexes (index-construction
	// time, excluded from query time as in the paper).
	if _, err = ev.Direct(q, k); err != nil {
		return
	}
	if _, bd, err = ev.Eval(q); err != nil {
		return
	}
	direct, err = timeIt(QueryRepeats, func() error {
		_, e := ev.Direct(q, k)
		return e
	})
	if err != nil {
		return
	}
	boosted, err = timeIt(QueryRepeats, func() error {
		var e error
		_, bd, e = ev.Eval(q)
		return e
	})
	return
}

// runBlinksFig reproduces Figs. 10-12: per-query Blinks times with and
// without BiG-index plus the query-time breakdown.
func runBlinksFig(id, dataset string) (*Report, error) {
	f, err := GetFixture(dataset)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: id, Title: "Query times of Blinks on " + dataset,
		Header: []string{"Query", "Blinks", "BiG+Blinks", "reduction", "layer", "search", "spec+prune", "ans-gen"}}

	opt := BlinksEvalOptions(dataset)
	ev := core.NewEvaluator(f.Index, NewBlinks(), opt)
	var sumD, sumB time.Duration
	for _, q := range f.Queries {
		direct, boosted, bd, err := evalPair(ev, q.Keywords, 0)
		if err != nil {
			return nil, err
		}
		sumD += direct
		sumB += boosted
		r.AddRow(q.ID, direct, boosted, pct(direct, boosted), bd.Layer, bd.Search, bd.Select+bd.Specialize, bd.Generate)
	}
	r.Notef("average reduction: %s (paper: 61.8%% YAGO3, 57.3%% DBpedia, 32.5%% IMDB)", pct(sumD, sumB))
	return r, nil
}

// runRcliqueFig reproduces Figs. 13-14: per-query r-clique times with and
// without BiG-index. r-clique is evaluated in its top-k approximate mode
// (k = 10), as in the original system.
func runRcliqueFig(id, dataset string) (*Report, error) {
	f, err := GetFixture(dataset)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: id, Title: "Query times of r-clique on " + dataset,
		Header: []string{"Query", "r-clique", "BiG+r-clique", "reduction", "layer", "search", "spec+prune", "ans-gen"}}

	opt := RCliqueEvalOptions()
	ev := core.NewEvaluator(f.Index, NewRClique(), opt)
	var sumD, sumB time.Duration
	for _, q := range f.Queries {
		direct, boosted, bd, err := evalPair(ev, q.Keywords, 10)
		if err != nil {
			return nil, err
		}
		sumD += direct
		sumB += boosted
		r.AddRow(q.ID, direct, boosted, pct(direct, boosted), bd.Layer, bd.Search, bd.Select+bd.Specialize, bd.Generate)
	}
	r.Notef("average reduction: %s (paper: 39.4%% YAGO3, 19.6%% DBpedia)", pct(sumD, sumB))
	return r, nil
}

// RunFig15 reproduces Fig. 15: query times on the synthetic scaling series
// with |Q| = 4, for Blinks (RHS) and r-clique (LHS), with and without
// BiG-index.
func RunFig15() (*Report, error) {
	r := &Report{ID: "Fig 15", Title: "Query times on synthetic datasets (|Q| = 4)",
		Header: []string{"Dataset", "r-clique", "BiG+r-clique", "Blinks", "BiG+Blinks"}}
	for _, name := range SynthNames {
		f, err := GetFixture(name)
		if err != nil {
			return nil, err
		}
		var q4 []graph.Label
		for _, q := range f.Queries {
			if len(q.Keywords) == 4 {
				q4 = q.Keywords
				break
			}
		}
		if q4 == nil {
			r.AddRow(name, "-", "-", "-", "-")
			continue
		}

		rcOpt := core.DefaultEvalOptions()
		rcOpt.K = 10
		rcOpt.GenLimit = 40
		evRC := core.NewEvaluator(f.Index, NewRClique(), rcOpt)
		dRC, bRC, _, err := evalPair(evRC, q4, 10)
		if err != nil {
			return nil, err
		}

		evBL := core.NewEvaluator(f.Index, NewBlinks(), BlinksEvalOptions(name))
		dBL, bBL, _, err := evalPair(evBL, q4, 0)
		if err != nil {
			return nil, err
		}
		r.AddRow(name, dRC, bRC, dBL, bBL)
	}
	r.Notef("paper: BiG-index reduces query times by at least 20%% on the synthetic series")
	return r, nil
}
