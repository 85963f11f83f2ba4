package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactCounts are the per-layer metrics that count work rather than time
// it; two runs of one commit on one seed must agree on them bit for bit.
var exactCounts = []string{
	"core.work_units_per_query", "core.vertices_expanded_per_query", "cost.route_layer0_frac",
	"shard.rounds_per_query", "shard.expands_per_query", "core.applied_recomputed_layers",
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one metric's values over a report's runs of a workload.
func (r *report) values(workload string, traced bool, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if m, ok := run.Metrics[name]; ok && run.Workload == workload && run.Traced == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// failRate is failed over attempted operations across a workload's runs.
func (r *report) failRate(workload string) float64 {
	att, failed := 0, 0
	for _, run := range r.Runs {
		if run.Workload == workload {
			att += run.Attempted
			failed += run.Failed
		}
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// compareReports prints, for every workload and end-to-end metric, B's
// median as a ratio of A's with its base, and a verdict against the
// metric's bound in BENCHMARK.json: "unresolved" when either side's own
// spread (interquartile range over median) exceeds the bound, "regression"
// when B is worse than A by more than the bound. It returns the exit code:
// 1 on a regression or a higher failure rate (and, with exact, on a
// differing exact-count metric), else 0.
func compareReports(w io.Writer, man *manifest, pathA, pathB string, exact bool) int {
	a, errA := loadReport(pathA)
	b, errB := loadReport(pathB)
	if err := cmp.Or(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return compareLoaded(w, man, a, b, exact)
}

func compareLoaded(w io.Writer, man *manifest, a, b *report, exact bool) int {
	code := 0
	fmt.Fprintf(w, "%-15s %-15s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			va, vb := a.values(wl.Name, false, m.Name), b.values(wl.Name, false, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			sa, sb := spread(va), spread(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regression"
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-15s %12.4f %12.4f %8.3f %8.3f %8.3f %6.2f  %s (n=%d,%d %s)\n",
				wl.Name, m.Name, ma, mb, mb/ma, sa, sb, m.Bound, verdict, len(va), len(vb), m.Unit)
		}
		if fa, fb := a.failRate(wl.Name), b.failRate(wl.Name); fb > fa {
			fmt.Fprintf(w, "%-15s ops_failed/ops_attempted rose from %.6f to %.6f\n", wl.Name, fa, fb)
			code = 1
		}
		compared, differ := 0, 0
		for _, name := range exactCounts {
			va, vb := a.values(wl.Name, true, name), b.values(wl.Name, true, name)
			if len(va) != len(vb) {
				continue
			}
			for i := range va {
				compared++
				if va[i] != vb[i] {
					differ++
					fmt.Fprintf(w, "%-15s %s differs: %v vs %v\n", wl.Name, name, va[i], vb[i])
				}
			}
		}
		if compared > 0 {
			fmt.Fprintf(w, "%-15s exact-count values: %d compared, %d differ\n", wl.Name, compared, differ)
		}
		if exact && differ > 0 {
			code = 1
		}
	}
	return code
}
