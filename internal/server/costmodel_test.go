package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/obs"
)

// The calibration endpoint is gated like every other /debug surface and
// rejects non-GET methods.
func TestCostmodelGating(t *testing.T) {
	s, _ := robustServer(t, Options{})
	rec, _ := get(t, s, "/debug/costmodel")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("costmodel with endpoints off = %d, want 404", rec.Code)
	}

	s2, _ := robustServer(t, Options{Debug: DebugOptions{Endpoints: true}})
	req := httptest.NewRequest(http.MethodPost, "/debug/costmodel", nil)
	rr := httptest.NewRecorder()
	s2.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST costmodel = %d, want 405", rr.Code)
	}
}

// Routed queries of every algorithm must populate the calibration window;
// the report carries the configured β and one row per (algo, layer)
// observed. Each algorithm runs the same query, so each routes to one
// layer and owns exactly one row. rclique runs under the evaluator options
// it serves with (K = MaxK, EarlyK), which no other algorithm uses.
func TestCostmodelCalibration(t *testing.T) {
	s, ds := robustServer(t, Options{Debug: DebugOptions{Endpoints: true, Sample: 1}})
	kw := popularTerm(ds)

	rec, body := get(t, s, "/debug/costmodel")
	if rec.Code != http.StatusOK {
		t.Fatalf("empty costmodel = %d: %s", rec.Code, rec.Body.String())
	}
	if body["window"] != float64(0) || body["configured_beta"] != 0.5 {
		t.Fatalf("empty report: %v", body)
	}
	if _, ok := body["suggested_beta"]; ok {
		t.Fatalf("β̂ must not be suggested from an empty window: %v", body)
	}

	// Routed (non-direct) evaluations feed the window; the cache is
	// bypassed so every request is a fresh sample.
	algos := []string{"blinks", "bkws", "bidir", "rclique"}
	const perAlgo = 4
	for _, algo := range algos {
		for i := 0; i < perAlgo; i++ {
			rec, _ := get(t, s, "/query?q="+kw+"&algo="+algo+"&k=5&nocache=1")
			if rec.Code != http.StatusOK {
				t.Fatalf("%s query %d: %d", algo, i, rec.Code)
			}
		}
		// Direct evaluations must NOT feed it — the router made no choice.
		if rec, _ := get(t, s, "/query?q="+kw+"&algo="+algo+"&k=5&direct=1&nocache=1"); rec.Code != http.StatusOK {
			t.Fatalf("%s direct query: %d", algo, rec.Code)
		}
	}
	ev, err := s.evaluator(s.st(), "rclique")
	if err != nil {
		t.Fatal(err)
	}
	if opt := ev.Options(); opt.K != s.opt.MaxK || !opt.EarlyK {
		t.Fatalf("rclique evaluator options K=%d EarlyK=%v, want K=%d EarlyK=true", opt.K, opt.EarlyK, s.opt.MaxK)
	}

	rec, body = get(t, s, "/debug/costmodel")
	if rec.Code != http.StatusOK {
		t.Fatalf("costmodel = %d", rec.Code)
	}
	want := float64(len(algos) * perAlgo)
	if body["window"] != want || body["total_samples"] != want {
		t.Fatalf("window after %v routed + %d direct queries: %v", want, len(algos), body)
	}
	layers, _ := body["layers"].([]interface{})
	rows := map[string]int{}
	for _, l := range layers {
		row := l.(map[string]interface{})
		algo, _ := row["algo"].(string)
		rows[algo]++
		if n, _ := row["count"].(float64); n != perAlgo {
			t.Fatalf("row count: %v", row)
		}
		if r, _ := row["mean_ratio"].(float64); r <= 0 {
			t.Fatalf("mean predicted/observed ratio must be positive: %v", row)
		}
	}
	if len(layers) != len(algos) {
		t.Fatalf("%d calibration rows, want one per algorithm: %v", len(layers), layers)
	}
	for _, algo := range algos {
		if rows[algo] != 1 {
			t.Fatalf("algorithm %s has %d calibration rows, want 1: %v", algo, rows[algo], layers)
		}
	}

	// The exported histogram observed the same ratios.
	mrec, _ := get(t, s, "/metrics")
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", mrec.Code)
	}
	for _, algo := range algos {
		if !strings.Contains(mrec.Body.String(), `bigindex_costmodel_error_count{algo="`+algo+`"`) {
			t.Fatalf("%s calibration histogram missing from /metrics:\n%s", algo, mrec.Body.String())
		}
	}
}

// A cache hit re-serves the leader's result without evaluating, so it must
// not add a calibration sample.
func TestCostmodelSkipsCacheHits(t *testing.T) {
	s, ds := robustServer(t, Options{Debug: DebugOptions{Endpoints: true}})
	kw := popularTerm(ds)
	for i := 0; i < 3; i++ {
		if rec, _ := get(t, s, "/query?q="+kw+"&algo=blinks&k=5"); rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d", i, rec.Code)
		}
	}
	_, body := get(t, s, "/debug/costmodel")
	if body["window"] != float64(1) {
		t.Fatalf("cache hits leaked into the window: %v", body)
	}
}

// /stats must report the flight recorder's ring occupancy.
func TestStatsRecorderOccupancy(t *testing.T) {
	s, ds := robustServer(t, Options{Debug: DebugOptions{Sample: 1}})
	if rec, _ := get(t, s, "/query?q="+popularTerm(ds)+"&algo=blinks&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("query: %d", rec.Code)
	}
	_, body := get(t, s, "/stats")
	r, _ := body["recorder"].(map[string]interface{})
	if r == nil {
		t.Fatalf("stats carries no recorder block: %v", body)
	}
	if cap, _ := r["capacity"].(float64); cap <= 0 {
		t.Fatalf("recorder capacity: %v", r)
	}
	if kept, _ := r["retained"].(float64); kept != 1 {
		t.Fatalf("retained = %v, want 1", r["retained"])
	}
	if _, ok := r["by_reason"].(map[string]interface{}); !ok {
		t.Fatalf("recorder by_reason: %v", r)
	}
}

// /debug/traces?since=<duration> restricts the listing to recent traces and
// rejects malformed durations.
func TestDebugTracesSince(t *testing.T) {
	s, ds := robustServer(t, Options{Debug: DebugOptions{Endpoints: true, Sample: 1}})
	if rec, _ := get(t, s, "/query?q="+popularTerm(ds)+"&algo=blinks&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("query: %d", rec.Code)
	}

	for _, bad := range []string{"bogus", "-5s", "0s"} {
		rec, _ := get(t, s, "/debug/traces?since="+bad)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("since=%s = %d, want 400", bad, rec.Code)
		}
	}

	rec, body := get(t, s, "/debug/traces?since=1h")
	if rec.Code != http.StatusOK {
		t.Fatalf("since=1h: %d", rec.Code)
	}
	if traces, _ := body["traces"].([]interface{}); len(traces) != 1 {
		t.Fatalf("since=1h traces: %v", body)
	}

	// After the trace has aged past a tiny window it must be filtered out.
	time.Sleep(30 * time.Millisecond)
	_, body = get(t, s, "/debug/traces?since=1ms")
	if traces, _ := body["traces"].([]interface{}); len(traces) != 0 {
		t.Fatalf("since=1ms should filter the old trace: %v", body)
	}
}

// Retained traces carry the query's cost ledger snapshot.
func TestDebugTraceCarriesCost(t *testing.T) {
	s, ds := robustServer(t, Options{Debug: DebugOptions{Endpoints: true, Sample: 1}})
	if rec, _ := get(t, s, "/query?q="+popularTerm(ds)+"&algo=blinks&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("query: %d", rec.Code)
	}
	_, body := get(t, s, "/debug/traces")
	traces, _ := body["traces"].([]interface{})
	if len(traces) != 1 {
		t.Fatalf("traces: %v", body)
	}
	entry := traces[0].(map[string]interface{})
	cost, _ := entry["cost"].(map[string]interface{})
	if cost == nil {
		t.Fatalf("trace has no cost ledger: %v", entry)
	}
	if wu, _ := cost["work_units"].(float64); wu <= 0 {
		t.Fatalf("trace cost work_units: %v", cost)
	}
	if fp, _ := cost["frontier_peak"].(float64); fp <= 0 {
		t.Fatalf("trace cost frontier_peak: %v", cost)
	}

	// The by-ID view carries the same ledger next to the span tree.
	id, _ := entry["id"].(string)
	_, byID := get(t, s, "/debug/traces/"+id)
	if c, _ := byID["cost"].(map[string]interface{}); c == nil || c["work_units"] != cost["work_units"] {
		t.Fatalf("by-ID cost mismatch: %v vs %v", byID["cost"], cost)
	}
}

// BenchmarkAuditCost runs the Formula 4 calibration audit of one routed
// bkws query per iteration, cycling over the yago-s workload, against a
// window that is full after the first 512 iterations.
func BenchmarkAuditCost(b *testing.B) {
	ds := datagen.YagoSmall()
	opt := core.DefaultBuildOptions()
	opt.Search.SampleCount = 120
	idx, err := core.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		b.Fatal(err)
	}
	s := New(idx, ds.Ont, Options{DMax: 4})
	ev, err := s.evaluator(s.st(), "bkws")
	if err != nil {
		b.Fatal(err)
	}
	type run struct {
		bd  *core.Breakdown
		led *obs.Ledger
	}
	var runs []run
	for _, q := range datagen.Queries(ds, datagen.DefaultWorkload()) {
		led := obs.NewLedger()
		_, bd, err := ev.EvalLayerCtx(obs.ContextWithLedger(context.Background(), led), q.Keywords, -1)
		if err != nil {
			b.Fatal(err)
		}
		runs = append(runs, run{bd, led})
	}
	req := request{ev: ev, algo: "bkws", layer: -1}
	for i := 0; i < 512; i++ {
		r := runs[i%len(runs)]
		s.auditCost(req, r.bd, r.led)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runs[i%len(runs)]
		s.auditCost(req, r.bd, r.led)
	}
}
