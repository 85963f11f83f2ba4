package server

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardParamValidation: &shards= follows the strict parameter
// conventions — malformed and negative values are client errors, asking a
// non-shardable algorithm to shard is a client error, and values above
// GOMAXPROCS are clamped with a note rather than rejected.
func TestShardParamValidation(t *testing.T) {
	s, ds := testServer(t)
	kw := popularTerm(ds)

	for _, bad := range []string{
		"/query?q=" + kw + "&algo=bkws&shards=abc",
		"/query?q=" + kw + "&algo=bkws&shards=-1",
		"/query?q=" + kw + "&algo=blinks&shards=2",
		"/query?q=" + kw + "&algo=rclique&shards=2",
		"/query?q=" + kw + "&shards=2", // default algo is blinks
	} {
		rec, body := get(t, s, bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
		if body["error"] == nil {
			t.Errorf("%s: missing error payload", bad)
		}
	}

	// Explicit 0 and 1 are valid everywhere: they select the sequential
	// path, which every algorithm has.
	for _, ok := range []string{
		"/query?q=" + kw + "&algo=blinks&shards=0",
		"/query?q=" + kw + "&algo=rclique&shards=1",
		"/query?q=" + kw + "&algo=bkws&shards=2",
		"/query?q=" + kw + "&algo=bidir&shards=2",
	} {
		rec, _ := get(t, s, ok)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", ok, rec.Code, rec.Body.String())
		}
	}

	// Oversubscription is clamped, noted, and still succeeds.
	rec, body := get(t, s, "/query?q="+kw+"&algo=bkws&shards=1000&nocache=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("oversubscribed: %d: %s", rec.Code, rec.Body.String())
	}
	found := false
	if notes, _ := body["notes"].([]interface{}); notes != nil {
		for _, n := range notes {
			if s, _ := n.(string); strings.Contains(s, "clamped") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no clamping note in response: %v", body["notes"])
	}
}

// TestShardOptionsClamped: a negative Options.Shards is defensive-clamped
// to sequential and an oversubscribed one to GOMAXPROCS at construction.
func TestShardOptionsClamped(t *testing.T) {
	s, ds := testServer(t) // Shards: 0
	if s.opt.Shards != 0 {
		t.Fatalf("default Shards = %d", s.opt.Shards)
	}
	s2 := New(s.Index(), ds.Ont, Options{DMax: 3, BlockSize: 64, Shards: -5})
	if s2.opt.Shards != 0 {
		t.Fatalf("negative Shards clamped to %d, want 0", s2.opt.Shards)
	}
	s3 := New(s.Index(), ds.Ont, Options{DMax: 3, BlockSize: 64, Shards: 10_000})
	if maxp := runtime.GOMAXPROCS(0); s3.opt.Shards != maxp {
		t.Fatalf("oversubscribed Shards = %d, want GOMAXPROCS (%d)", s3.opt.Shards, maxp)
	}
}

// TestShardAnswerEquality is the serving-layer contract: for bkws and
// bidir, every worker count returns matches identical to the sequential
// path — same roots, same scores, same witness nodes, same order.
func TestShardAnswerEquality(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s, ds := testServer(t)
	kw := popularTerm(ds)

	for _, algo := range []string{"bkws", "bidir"} {
		_, want := get(t, s, "/query?q="+kw+"&algo="+algo+"&k=10&nocache=1&shards=0")
		for _, workers := range []int{1, 2, 4, 8} {
			path := fmt.Sprintf("/query?q=%s&algo=%s&k=10&nocache=1&shards=%d", kw, algo, workers)
			rec, got := get(t, s, path)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
			}
			if fmt.Sprint(got["matches"]) != fmt.Sprint(want["matches"]) {
				t.Fatalf("%s@%d: sharded answers differ from sequential\ngot:  %v\nwant: %v",
					algo, workers, got["matches"], want["matches"])
			}
		}
	}
}

// TestShardStatsAndDebugIndex: /stats reports the shard block (planned
// only after a sharded query ran) and /debug/index reports the partition
// layout with min/max block sizes.
func TestShardStatsAndDebugIndex(t *testing.T) {
	base, ds := testServer(t)
	s := New(base.Index(), ds.Ont, Options{DMax: 3, BlockSize: 64, Debug: DebugOptions{Endpoints: true}})
	kw := popularTerm(ds)

	_, stats := get(t, s, "/stats")
	sh, _ := stats["shard"].(map[string]interface{})
	if sh == nil {
		t.Fatalf("no shard block in /stats: %v", stats)
	}
	if sh["planned"] != false {
		t.Fatalf("shard plan exists before any sharded query: %v", sh)
	}
	if gp, _ := sh["gomaxprocs"].(float64); int(gp) != runtime.GOMAXPROCS(0) {
		t.Fatalf("gomaxprocs = %v", sh["gomaxprocs"])
	}

	// direct=1 pins evaluation to the data graph, so the plan /stats
	// describes (Blocks/EdgeCut are the data graph's) is the one built.
	if rec, _ := get(t, s, "/query?q="+kw+"&algo=bkws&shards=1&nocache=1&direct=1"); rec.Code != http.StatusOK {
		t.Fatalf("sharded query: %d", rec.Code)
	}
	_, stats = get(t, s, "/stats")
	sh, _ = stats["shard"].(map[string]interface{})
	if sh["planned"] != true {
		t.Fatalf("shard plan not reported after a sharded query: %v", sh)
	}
	if b, _ := sh["blocks"].(float64); b < 1 {
		t.Fatalf("blocks = %v", sh["blocks"])
	}
	if n, _ := sh["plans"].(float64); n < 1 {
		t.Fatalf("plans = %v", sh["plans"])
	}

	_, dbg := get(t, s, "/debug/index")
	part, _ := dbg["partition"].(map[string]interface{})
	if part == nil {
		t.Fatalf("no partition block in /debug/index: %v", dbg)
	}
	blocks, _ := part["blocks"].(float64)
	minB, _ := part["min_block"].(float64)
	maxB, _ := part["max_block"].(float64)
	if blocks < 1 || minB < 1 || maxB < minB || maxB > 64 {
		t.Fatalf("implausible partition block: %v", part)
	}
	if tgt, _ := part["target_block_size"].(float64); int(tgt) != 64 {
		t.Fatalf("target_block_size = %v", part["target_block_size"])
	}
}

// TestShardMetrics: sharded queries surface in the bigindex_shard_*
// metric family and the workers gauge reflects the configured default.
func TestShardMetrics(t *testing.T) {
	base, ds := testServer(t)
	s := New(base.Index(), ds.Ont, Options{DMax: 3, BlockSize: 64, Shards: 1})
	kw := popularTerm(ds)
	if rec, _ := get(t, s, "/query?q="+kw+"&algo=bkws&nocache=1"); rec.Code != http.StatusOK {
		t.Fatalf("query: %d", rec.Code)
	}
	rec, _ := get(t, s, "/metrics")
	text := rec.Body.String()
	for _, want := range []string{
		`bigindex_shard_queries_total{algo="bkws",workers="1"} 1`,
		"bigindex_shard_workers 1",
		"bigindex_shard_tasks_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
}

// TestShardMutateSwapRace is the -race stress gate: concurrent sharded
// queries interleave with index swaps from two /admin/edges writers. Every
// query must come back 200 (each request resolves graph, plan, and
// evaluator through one atomically-loaded bundle), and after quiescing the
// sharded answers must be byte-identical to sequential on the final index.
func TestShardMutateSwapRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s, ds := testServer(t)
	NewMutator(s, 0, MutatorOptions{}) // nil WAL: in-memory mutation only
	kw := popularTerm(ds)

	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	var failures atomic.Int32

	// Query workers: sharded bkws and bidir, cache bypassed so every
	// request exercises the coordinator against the live index.
	for _, algo := range []string{"bkws", "bidir"} {
		wg.Add(1)
		go func(algo string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rec, _ := get(t, s, "/query?q="+kw+"&algo="+algo+"&shards=4&k=5&nocache=1")
				if rec.Code != http.StatusOK {
					failures.Add(1)
					t.Errorf("%s sharded query during churn: %d: %s", algo, rec.Code, rec.Body.String())
					return
				}
			}
		}(algo)
	}

	// Writers: each flips an edge picked from the graph version it loaded;
	// the other writer's batch can invalidate the pick, which the
	// admission layer rejects with a client error — that's fine, only 5xx
	// would indicate torn state.
	for _, pick := range []func(n int) int{
		func(n int) int { return n / 2 },
		func(n int) int { return n / 3 },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				es := s.Index().Data().Edges()
				if len(es) == 0 {
					return
				}
				e := es[pick(len(es))]
				for _, body := range []map[string]interface{}{mutationBody(nil, &e), mutationBody(&e, nil)} {
					rec, _ := postJSON(t, s, "/admin/edges", body, nil)
					if rec.Code >= 500 {
						failures.Add(1)
						t.Errorf("mutation: %d: %s", rec.Code, rec.Body.String())
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	if failures.Load() > 0 {
		t.Fatal("stress run had failures")
	}
	if s.Index().Epoch() == 0 {
		t.Fatal("no batch applied: the queries never raced a swap")
	}

	// Quiesced equivalence: on the settled index, sharded == sequential.
	for _, algo := range []string{"bkws", "bidir"} {
		_, want := get(t, s, "/query?q="+kw+"&algo="+algo+"&k=10&nocache=1&shards=0")
		for _, workers := range []int{1, 4} {
			path := fmt.Sprintf("/query?q=%s&algo=%s&k=10&nocache=1&shards=%d", kw, algo, workers)
			_, got := get(t, s, path)
			if fmt.Sprint(got["matches"]) != fmt.Sprint(want["matches"]) {
				t.Fatalf("%s@%d after churn: answers differ from sequential\ngot:  %v\nwant: %v",
					algo, workers, got["matches"], want["matches"])
			}
		}
	}
}
