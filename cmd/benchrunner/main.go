// Command benchrunner regenerates the paper's tables and figures.
//
// Usage:
//
//	benchrunner -exp table2        # one experiment
//	benchrunner -exp fig10,fig13   # several
//	benchrunner -exp all           # everything, in paper order
//	benchrunner -list              # show available experiment IDs
//	benchrunner -json out.json     # machine-readable export (default
//	                               # BENCH_eval.json; -json "" disables)
//
// It runs only the paper artifacts (table2–4, fig9–19, exp3, exp4,
// headline). Serving performance — latency, throughput, build and restore
// time, per-package costs — is measured by the benchmark/ harness, and the
// served Formula 4 calibration by bigindexd's /debug/costmodel, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"bigindex/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	jsonOut := flag.String("json", "BENCH_eval.json", "write a machine-readable report here (empty = off)")
	flag.Parse()

	if *list {
		ids := make([]string, 0, len(bench.Experiments))
		for id := range bench.Experiments {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	var ids []string
	if *exp == "all" {
		ids = bench.ExperimentOrder
	} else {
		ids = strings.Split(*exp, ",")
	}

	var reports []*bench.Report
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, ok := bench.Experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		rep, err := runner()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			os.Exit(1)
		}
		rep.Elapsed = time.Since(start)
		reports = append(reports, rep)
		if err := rep.Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "writing report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n\n", id, rep.Elapsed.Round(time.Millisecond))
	}

	if *jsonOut != "" {
		writeJSON(*jsonOut, reports)
	}
}

func writeJSON(path string, reports []*bench.Report) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "creating %s: %v\n", path, err)
		os.Exit(1)
	}
	err = bench.WriteJSON(f, reports)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("machine-readable report written to %s\n", path)
}
