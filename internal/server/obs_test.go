package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sort"
	"strings"
	"testing"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/obs"
)

// popularTerms returns label names by descending occurrence count.
func popularTerms(ds *datagen.Dataset, n int) []string {
	type lc struct {
		name  string
		count int
	}
	var all []lc
	for _, l := range ds.Graph.DistinctLabels() {
		all = append(all, lc{ds.Graph.Dict().Name(l), ds.Graph.LabelCount(l)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].count > all[j].count })
	var out []string
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, all[i].name)
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	s, ds := testServer(t)
	kw := popularTerm(ds)

	// Drive one query (eval + direct) so serving metrics have samples.
	if rec, _ := get(t, s, "/query?q="+kw+"&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("query: %d", rec.Code)
	}
	if rec, _ := get(t, s, "/query?q="+kw+"&direct=1"); rec.Code != http.StatusOK {
		t.Fatalf("direct query: %d", rec.Code)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE bigindex_http_requests_total counter",
		`bigindex_http_requests_total{path="/query",code="200"} 2`,
		"# TYPE bigindex_http_request_seconds histogram",
		`bigindex_http_request_seconds_bucket{path="/query",le="+Inf"} 2`,
		`bigindex_http_request_seconds_count{path="/query"} 2`,
		"# TYPE bigindex_query_phase_seconds histogram",
		`bigindex_query_phase_seconds_count{phase="select"} 1`,
		`bigindex_query_phase_seconds_count{phase="search"} 1`,
		`bigindex_query_seconds_count{algo="blinks",mode="eval"} 1`,
		`bigindex_query_seconds_count{algo="blinks",mode="direct"} 1`,
		"bigindex_index_layers",
		"bigindex_graph_vertices",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestQueryTraceParam checks the acceptance criterion: &trace=1 returns a
// nested span tree whose phase names match core.Breakdown
// (Select/Search/Specialize/Generate).
func TestQueryTraceParam(t *testing.T) {
	s, ds := testServer(t)

	var tree obs.SpanJSON
	var layer float64
	found := false
	// Scan popular terms for a query that evaluates above the data layer so
	// the full four-phase tree appears.
	for _, kw := range popularTerms(ds, 12) {
		rec, body := get(t, s, "/query?q="+kw+"&trace=1")
		if rec.Code != http.StatusOK {
			continue
		}
		raw, err := json.Marshal(body["trace"])
		if err != nil || string(raw) == "null" {
			t.Fatalf("trace missing from response: %v", body)
		}
		if err := json.Unmarshal(raw, &tree); err != nil {
			t.Fatalf("trace is not a span tree: %v", err)
		}
		layer, _ = body["layer"].(float64)
		found = true
		if layer > 0 {
			break
		}
	}
	if !found {
		t.Fatal("no query succeeded")
	}

	got := map[string]bool{}
	for _, c := range tree.Children {
		got[c.Name] = true
	}
	want := []string{"Select", "Search"}
	if layer > 0 {
		want = append(want, "Specialize", "Generate")
	} else {
		t.Log("all probe queries evaluated at layer 0; Specialize/Generate spans not exercised")
	}
	for _, name := range want {
		if !got[name] {
			t.Fatalf("span %q missing from trace (children %v, layer %v)", name, got, layer)
		}
	}
	if tree.Name != "/query" {
		t.Fatalf("trace root = %q, want /query", tree.Name)
	}
	// Untraced responses must not carry a trace.
	_, body := get(t, s, "/query?q="+popularTerm(ds))
	if _, ok := body["trace"]; ok {
		t.Fatal("trace present without trace=1")
	}
}

// TestRequestLogFields checks the structured request log on /query.
func TestRequestLogFields(t *testing.T) {
	ds := datagen.Generate(datagen.Options{
		Name: "srv-log", Entities: 1200, Terms: 100, LeafTypes: 8, Seed: 99,
	})
	opt := core.DefaultBuildOptions()
	opt.Search.SampleCount = 30
	idx, err := core.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	s := New(idx, ds.Ont, Options{
		DMax: 3, BlockSize: 64,
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})

	kw := popularTerm(ds)
	if rec, _ := get(t, s, "/query?q="+kw+"&algo=bkws&k=4"); rec.Code != http.StatusOK {
		t.Fatalf("query: %d", rec.Code)
	}
	var entry map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &entry); err != nil {
		t.Fatalf("request log not one JSON line: %v\n%s", err, logBuf.String())
	}
	checks := map[string]any{
		"msg":    "request",
		"method": "GET",
		"path":   "/query",
		"status": float64(200),
		"query":  kw,
		"algo":   "bkws",
		"k":      float64(4),
		"mode":   "eval",
	}
	for key, want := range checks {
		if entry[key] != want {
			t.Fatalf("log[%q] = %v, want %v (%v)", key, entry[key], want, entry)
		}
	}
	for _, key := range []string{"elapsed", "layer", "count"} {
		if _, ok := entry[key]; !ok {
			t.Fatalf("log missing %q: %v", key, entry)
		}
	}
}

// TestQueryHonorsKAtResultTime is the regression test for the evaluator's
// previously ignored per-request k: the shared (exhaustive) evaluator must
// be clamped to the request's k when results are assembled, for every
// algorithm and without one request's k leaking into another's.
func TestQueryHonorsKAtResultTime(t *testing.T) {
	s, ds := testServer(t)
	kw := popularTerm(ds)

	for _, algo := range []string{"blinks", "bkws", "bidir", "rclique"} {
		small := queryCount(t, s, fmt.Sprintf("/query?q=%s&algo=%s&k=2", kw, algo))
		if small > 2 {
			t.Fatalf("%s: k=2 returned %d matches", algo, small)
		}
		big := queryCount(t, s, fmt.Sprintf("/query?q=%s&algo=%s&k=50", kw, algo))
		if big > 50 {
			t.Fatalf("%s: k=50 returned %d matches", algo, big)
		}
		if big < small {
			t.Fatalf("%s: k=50 returned fewer matches (%d) than k=2 (%d)", algo, big, small)
		}
		// A later small-k request must not be inflated by the earlier big-k
		// one (the old bug: per-request k silently ignored on the shared
		// evaluator).
		again := queryCount(t, s, fmt.Sprintf("/query?q=%s&algo=%s&k=1", kw, algo))
		if again > 1 {
			t.Fatalf("%s: k=1 after k=50 returned %d matches", algo, again)
		}
	}
}

func queryCount(t *testing.T, s *Server, path string) int {
	t.Helper()
	rec, body := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	cnt, _ := body["count"].(float64)
	ms, _ := body["matches"].([]any)
	if int(cnt) != len(ms) {
		t.Fatalf("%s: count %v != len(matches) %d", path, cnt, len(ms))
	}
	return int(cnt)
}

// maxSeries bounds the label sets (histogram buckets folded) of any one
// bigindex_* family: algorithms × layers is the widest legitimate domain.
const maxSeries = 40

// TestMetricCardinalityBounded drives /query with hundreds of distinct
// keyword sets, unknown algorithms, unknown paths and malformed
// parameters, and requires every bigindex_* family to stay under
// maxSeries label sets: only validated values (normalized paths, parsed
// algorithm names, layers, outcomes) may become labels, so the series
// count cannot grow with the number of distinct requests.
func TestMetricCardinalityBounded(t *testing.T) {
	s, ds := robustServer(t, Options{})
	terms := popularTerms(ds, 24)
	algos := []string{"blinks", "bkws", "bidir", "rclique"}
	n := 0
	for i, a := range terms {
		for _, b := range terms[i+1:] {
			get(t, s, "/query?q="+url.QueryEscape(a+","+b)+"&algo="+algos[n%len(algos)]+"&k=3")
			n++
		}
	}
	for i := 0; i < 3*maxSeries; i++ {
		kw := url.QueryEscape(terms[i%len(terms)])
		for _, path := range []string{
			fmt.Sprintf("/query?q=%s&algo=plugin%d", kw, i),
			fmt.Sprintf("/nowhere/%d", i),
			fmt.Sprintf("/debug/traces/%d", i),
			fmt.Sprintf("/query?q=%s&k=x%d", kw, i),
			fmt.Sprintf("/query?q=%s&layer=%d", kw, 100+i),
			fmt.Sprintf("/query?q=%s&direct=d%d", kw, i),
			fmt.Sprintf("/query?q=nolabel%d", i),
		} {
			if rec, _ := get(t, s, path); rec.Code < 400 {
				t.Fatalf("%s: status %d, want an error", path, rec.Code)
			}
		}
	}
	if n < 3*maxSeries {
		t.Fatalf("only %d distinct keyword sets", n)
	}

	rec, _ := get(t, s, "/metrics")
	for fam, sets := range seriesByFamily(rec.Body.String()) {
		if len(sets) > maxSeries {
			t.Errorf("%s has %d series after %d distinct requests", fam, len(sets), n+7*3*maxSeries)
		}
	}
}

// seriesByFamily maps each bigindex_* family of a Prometheus exposition to
// its distinct label sets, with histogram samples folded into their
// family and the le label dropped.
func seriesByFamily(exposition string) map[string]map[string]bool {
	types := map[string]string{}
	out := map[string]map[string]bool{}
	le := regexp.MustCompile(`,?le="[^"]*"`)
	for _, line := range strings.Split(exposition, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if !strings.HasPrefix(line, "bigindex_") {
			continue
		}
		name, labels := line[:strings.IndexAny(line, "{ ")], ""
		if line[len(name)] == '{' {
			labels = le.ReplaceAllString(line[len(name):strings.Index(line, "} ")+1], "")
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(name, suf); fam != name && types[fam] == "histogram" {
				name = fam
			}
		}
		if out[name] == nil {
			out[name] = map[string]bool{}
		}
		out[name][labels] = true
	}
	return out
}
