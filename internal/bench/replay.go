package bench

// Workload replay: re-evaluate a query log captured by bigindexd's
// -query-log flag (internal/obs.QueryLog) against a locally built fixture
// and audit Formula 4 the same way the server's /debug/costmodel does —
// per-(algo, layer) predicted-vs-observed calibration plus the
// least-squares β̂ the replayed workload suggests. The replay is offline
// and deterministic: same log + same dataset ⇒ same routing, same ledger
// work, same calibration rows.

import (
	"context"
	"fmt"

	"bigindex/internal/core"
	"bigindex/internal/cost"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search/bidir"
	"bigindex/internal/search/bkws"
)

// replayEvaluator builds the per-algorithm evaluator replay uses,
// mirroring the server's evaluator pool (internal/server.evaluator): the
// replayed routing decisions must match what the capturing daemon did.
func replayEvaluator(f *Fixture, algo string) (*core.Evaluator, error) {
	switch algo {
	case "", "blinks":
		return core.NewEvaluator(f.Index, NewBlinks(), BlinksEvalOptions(f.DS.Name)), nil
	case "bkws":
		return core.NewEvaluator(f.Index, bkws.New(DMax), BlinksEvalOptions(f.DS.Name)), nil
	case "bidir":
		return core.NewEvaluator(f.Index, bidir.New(DMax), BlinksEvalOptions(f.DS.Name)), nil
	case "rclique":
		return core.NewEvaluator(f.Index, NewRClique(), RCliqueEvalOptions()), nil
	default:
		return nil, fmt.Errorf("bench: replay: unknown algorithm %q", algo)
	}
}

// RunReplay replays the workload captured at path against the dataset it
// was captured on (a bigindexd -preset value). It takes arguments, so it
// is not a Runner and not in Experiments; benchrunner registers it from
// its -workload flags. Entries that cannot contribute to calibration are
// skipped, not fatal: direct (baseline) evaluations bypass the router,
// non-ok outcomes measured partial work, and keywords absent from the
// replay dataset have no labels to resolve.
func RunReplay(path, dataset string) (*Report, error) {
	if path == "" {
		return nil, fmt.Errorf("bench: replay needs a workload file (benchrunner -workload)")
	}
	entries, malformed, err := obs.ReadQueryLogFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading workload %s: %w", path, err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("bench: workload %s holds no replayable entries", path)
	}
	f, err := GetFixture(dataset)
	if err != nil {
		return nil, err
	}
	dict := f.DS.Graph.Dict()
	size := f.DS.Graph.Size()
	if size <= 0 {
		return nil, fmt.Errorf("bench: replay dataset %s is empty", dataset)
	}

	cal := cost.NewCalibration(len(entries))
	evs := map[string]*core.Evaluator{}
	var capturedWork = map[string]int64{} // algo -> summed captured work units
	var capturedN = map[string]int{}
	replayed, skipDirect, skipOutcome, skipResolve, skipEval := 0, 0, 0, 0, 0

	for _, e := range entries {
		if e.Direct {
			skipDirect++
			continue
		}
		if e.Outcome != "ok" {
			skipOutcome++
			continue
		}
		q := make([]graph.Label, 0, len(e.Keywords))
		ok := true
		for _, name := range e.Keywords {
			l := dict.Lookup(name)
			if l == graph.NoLabel {
				ok = false
				break
			}
			q = append(q, l)
		}
		if !ok || len(q) == 0 {
			skipResolve++
			continue
		}
		ev := evs[e.Algo]
		if ev == nil {
			ev, err = replayEvaluator(f, e.Algo)
			if err != nil {
				skipResolve++
				continue
			}
			evs[e.Algo] = ev
			// First use: warm the per-layer prepared indexes so index
			// construction never pollutes the first entry's ledger.
			if _, _, err := ev.Eval(q); err != nil {
				skipEval++
				continue
			}
		}
		led := obs.NewLedger()
		_, bd, err := ev.EvalCtx(obs.ContextWithLedger(context.Background(), led), q)
		if err != nil || bd == nil {
			skipEval++
			continue
		}
		work := led.WorkUnits()
		if work <= 0 {
			skipEval++
			continue
		}
		opt := ev.Options()
		compress, sup, legal := cost.LayerTerms(f.Index, q, opt.DegreeExponent)
		cal.Add(cost.Sample{
			Algo: e.Algo, Layer: bd.Layer,
			Compress: compress, Sup: sup, Legal: legal,
			Observed: float64(work) / float64(size),
		})
		replayed++
		if e.Cost != nil {
			capturedWork[e.Algo] += e.Cost.WorkUnits
			capturedN[e.Algo]++
		}
	}
	if replayed == 0 {
		return nil, fmt.Errorf("bench: no entry of %s could be replayed against %s (%d direct, %d non-ok, %d unresolvable, %d failed)",
			path, dataset, skipDirect, skipOutcome, skipResolve, skipEval)
	}

	r := &Report{ID: "replay", Title: fmt.Sprintf("Workload replay of %s on %s: Formula 4 calibration", path, dataset),
		Header: []string{"algo", "layer", "queries", "mean predicted", "mean observed", "predicted/observed"}}
	for _, row := range cal.Summary(Beta) {
		r.AddRow(row.Algo, row.Layer, row.Count,
			fmt.Sprintf("%.5f", row.MeanPredicted),
			fmt.Sprintf("%.5f", row.MeanObserved),
			fmt.Sprintf("%.3f", row.MeanRatio))
	}
	if betaHat, a, b, ok := cal.Fit(); ok {
		r.Notef("least-squares fit over %d replayed queries: a=%.4g b=%.4g, suggested β̂=%.3f (configured β=%.2f)",
			replayed, a, b, betaHat, Beta)
	} else {
		r.Notef("window too small or degenerate for a β fit (%d replayed queries)", replayed)
	}
	for algo, n := range capturedN {
		r.Notef("captured ledger (%s): mean %d work units over %d logged queries", algo, capturedWork[algo]/int64(n), n)
	}
	r.Notef("skipped: %d direct, %d non-ok, %d unresolvable, %d failed evals, %d malformed lines",
		skipDirect, skipOutcome, skipResolve, skipEval, malformed)
	return r, nil
}
