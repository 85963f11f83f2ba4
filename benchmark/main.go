// Command benchmark is the repository's one benchmark: it generates its
// inputs from -seed, serves them through a real loopback listener and the
// real build / restore / mutate entry points, checks every answer against
// the layer-0 oracle, and reports the end-to-end metrics (untraced) and
// the per-layer metrics (traced) that BENCHMARK.json names. See README.md.
//
//	go run ./benchmark                       all five workloads, untraced then traced
//	go run ./benchmark -workload serve_eval  one workload
//	go run ./benchmark -smoke                the few-second profile the tests use
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// manifest is BENCHMARK.json: the one place metric names, units and
// bounds are written down. The program checks what it emits against it.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// check reports every difference between the metrics a run emitted and
// the ones the manifest names for its mode, and every non-finite value.
func (m *manifest) check(r *result) []string {
	want := m.EndToEnd
	if r.Traced {
		want = m.PerLayer
	}
	var bad []string
	named := make(map[string]bool)
	for _, w := range want {
		named[w.Name] = true
		got, ok := r.Metrics[w.Name]
		switch {
		case !ok:
			bad = append(bad, "missing metric "+w.Name)
		case got.Unit != w.Unit:
			bad = append(bad, fmt.Sprintf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit))
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			bad = append(bad, "metric "+w.Name+" is not finite")
		}
	}
	for name := range r.Metrics {
		if !named[name] {
			bad = append(bad, "metric "+name+" is not named in BENCHMARK.json")
		}
	}
	sort.Strings(bad)
	return bad
}

// header is the machine and build context every output carries.
type header struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	SingleCPU  bool    `json:"single_cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Smoke      bool    `json:"smoke"`
	Claim      *string `json:"claim"` // this benchmark claims no gain
}

type report struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d inputs=%s ops_attempted=%d ops_failed=%d samples=%d wall=%.1fs\n",
		r.Workload, mode, r.Seed, r.InputsDigest, r.Attempted, r.Failed, r.Samples, r.WallS)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
		smoke    = flag.Bool("smoke", false, "tiny inputs and half-second passes: exercises every path in a few seconds")
		runs     = flag.Int("runs", 1, "repeat every run this many times, with seeds seed, seed+1, ...")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for the report, traces and temp files")
		manPath  = flag.String("manifest", "BENCHMARK.json", "the benchmark manifest")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
		exact    = flag.Bool("exact", false, "with -compare: also fail when an exact-count metric differs (A/A runs)")
	)
	flag.Parse()
	man, err := loadManifest(*manPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		os.Exit(compareReports(os.Stdout, man, flag.Arg(0), flag.Arg(1), *exact))
	}

	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
		if *smoke {
			*seconds = 0.5
		}
	}
	// Closed loop: the callers of /query are an application tier that
	// waits for each reply. One caller per processor, at most four.
	clients := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(clients)
	hdr := header{GoVersion: runtime.Version(), GOMAXPROCS: clients, NumCPU: runtime.NumCPU(),
		SingleCPU: runtime.NumCPU() < 2, Commit: commit(), Seed: *seed, Seconds: *seconds,
		Clients: clients, Smoke: *smoke}
	if hdr.SingleCPU {
		fmt.Fprintln(os.Stderr, "benchmark: single CPU: clients, server and shard peers share one core; multi-core behaviour is not exercised")
	}
	hj, _ := json.Marshal(hdr) // plain fields: cannot fail
	fmt.Printf("header %s\n", hj)

	ev := env{clients: clients, outDir: *outDir, seconds: *seconds}
	rep := report{Header: hdr}
	ok := true
	for _, sp := range specs(*smoke) {
		if *workload != "" && sp.Name != *workload {
			continue
		}
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			for i := 0; i < *runs; i++ {
				r, err := runWorkload(sp, *seed+int64(i), traced, ev)
				if err != nil {
					fatal(err)
				}
				for _, b := range man.check(r) {
					r.Correct = false
					r.note("%s", b)
				}
				printResult(os.Stdout, r)
				rep.Runs = append(rep.Runs, r)
				ok = ok && r.Correct
			}
		}
	}
	if len(rep.Runs) == 0 {
		names := []string{}
		for _, sp := range specs(false) {
			names = append(names, sp.Name)
		}
		fatal(fmt.Errorf("unknown workload %q (have %v)", *workload, names))
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*outDir, "report.json"), data, 0o644)
	}
	if err != nil {
		fatal(err)
	}

	// The driver's contract: a single run ends with one JSON object as the
	// last line of stdout and exit code 0, whatever "correct" says.
	if len(rep.Runs) == 1 {
		r := rep.Runs[0]
		line, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		fmt.Println(string(line))
	} else if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
