package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/graph"
	"bigindex/internal/search"
)

// stubAlgo is a fault-injection search.Algorithm: SearchCtx delegates to a
// test-provided function, so tests can block, panic, or degrade on demand.
// Reached deterministically through &direct=1 (DirectCtx prepares layer 0
// and calls SearchCtx straight away, bypassing the cost model).
type stubAlgo struct {
	name string
	fn   func(ctx context.Context, q []graph.Label, k int) ([]search.Match, error)
}

func (a *stubAlgo) Name() string                                    { return a.name }
func (a *stubAlgo) Prepare(g *graph.Graph) (search.Prepared, error) { return &stubPrepared{a}, nil }
func (a *stubAlgo) NewGeneration(data *graph.Graph, q []graph.Label, opt search.GenOptions) search.Generation {
	return stubGen{}
}

type stubPrepared struct{ a *stubAlgo }

func (p *stubPrepared) Search(q []graph.Label, k int) ([]search.Match, error) {
	return p.SearchCtx(context.Background(), q, k)
}
func (p *stubPrepared) SearchCtx(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
	return p.a.fn(ctx, q, k)
}

type stubGen struct{}

func (stubGen) Generate(rootCands []graph.V, cands [][]graph.V) []search.Match { return nil }
func (stubGen) GenerateCtx(ctx context.Context, rootCands []graph.V, cands [][]graph.V) []search.Match {
	return nil
}

// robustServer is testServer with injectable Options and a smaller dataset
// (the robustness tests don't need answer volume, just a working index).
func robustServer(t *testing.T, opt Options) (*Server, *datagen.Dataset) {
	t.Helper()
	ds := datagen.Generate(datagen.Options{
		Name: "robust", Entities: 400, Terms: 60, LeafTypes: 6, Seed: 7,
	})
	bopt := core.DefaultBuildOptions()
	bopt.Search.SampleCount = 20
	idx, err := core.Build(ds.Graph, ds.Ont, bopt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.DMax == 0 {
		opt.DMax = 3
	}
	if opt.BlockSize == 0 {
		opt.BlockSize = 64
	}
	return New(idx, ds.Ont, opt), ds
}

// A client that disconnects mid-query must abort the search promptly for
// every algorithm: the handler sees context.Canceled, answers 499, and the
// cancellation counter records the abort.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	s, ds := robustServer(t, Options{})
	kw := popularTerm(ds)
	for i, algo := range []string{"blinks", "bkws", "bidir", "rclique"} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodGet, "/query?q="+kw+"&algo="+algo, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != statusClientClosedRequest {
			t.Fatalf("%s: status %d, want %d: %s", algo, rec.Code, statusClientClosedRequest, rec.Body.String())
		}
		if got := s.cancelled.With("client").Value(); got != int64(i+1) {
			t.Fatalf("%s: cancelled{client} = %d, want %d", algo, got, i+1)
		}
	}
}

// A deadline expiring mid-evaluation degrades to the partial answers found
// so far: HTTP 200, "degraded": true, and the matches that were already
// verified — not a 500 and not an empty error body.
func TestDeadlineReturnsDegradedPartial(t *testing.T) {
	slow := &stubAlgo{name: "slow", fn: func(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
		ms := []search.Match{{Root: 0, Score: 1}}
		<-ctx.Done() // hold the partial result until the deadline fires
		return ms, context.Cause(ctx)
	}}
	s, ds := robustServer(t, Options{
		ExtraAlgorithms: map[string]search.Algorithm{"slow": slow},
	})
	kw := popularTerm(ds)

	rec, body := get(t, s, "/query?q="+kw+"&algo=slow&direct=1&timeout=50ms")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if body["degraded"] != true || body["degraded_reason"] != "deadline" {
		t.Fatalf("degraded flags missing: %v", body)
	}
	if cnt, _ := body["count"].(float64); cnt != 1 {
		t.Fatalf("partial matches lost: count = %v", body["count"])
	}
	if got := s.cancelled.With("deadline").Value(); got != 1 {
		t.Fatalf("cancelled{deadline} = %d, want 1", got)
	}
	if got := s.degraded.Value(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}
}

// &timeout= may shorten the server deadline but never extend it: a request
// asking for 10m against a 60ms QueryTimeout still degrades in ~60ms.
func TestTimeoutParamClampedUnderServerDeadline(t *testing.T) {
	slow := &stubAlgo{name: "slow", fn: func(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}}
	s, ds := robustServer(t, Options{
		QueryTimeout:    60 * time.Millisecond,
		ExtraAlgorithms: map[string]search.Algorithm{"slow": slow},
	})
	kw := popularTerm(ds)
	start := time.Now()
	rec, body := get(t, s, "/query?q="+kw+"&algo=slow&direct=1&timeout=10m")
	if rec.Code != http.StatusOK || body["degraded"] != true {
		t.Fatalf("status %d body %v, want degraded 200", rec.Code, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("clamp failed: query ran %v", elapsed)
	}
}

// With MaxInFlight=1 and an immediate-shed wait, a second concurrent query
// is rejected with 429 + Retry-After while the first one is still running.
func TestLoadSheddingReturns429(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	block := &stubAlgo{name: "block", fn: func(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return []search.Match{{Root: 0, Score: 1}}, nil
	}}
	s, ds := robustServer(t, Options{
		MaxInFlight:     1,
		ShedWait:        -1, // shed immediately; no timer race in the test
		ExtraAlgorithms: map[string]search.Algorithm{"block": block},
	})
	kw := popularTerm(ds)

	var wg sync.WaitGroup
	wg.Add(1)
	var firstCode int
	go func() {
		defer wg.Done()
		rec, _ := get(t, s, "/query?q="+kw+"&algo=block&direct=1")
		firstCode = rec.Code
	}()
	<-started
	if got := s.inflightQ.Value(); got != 1 {
		t.Fatalf("inflight gauge = %v, want 1", got)
	}

	rec, body := get(t, s, "/query?q="+kw+"&algo=block&direct=1")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second query: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if body["error"] == nil {
		t.Fatal("429 without an error payload")
	}
	if got := s.shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	close(release)
	wg.Wait()
	if firstCode != http.StatusOK {
		t.Fatalf("admitted query: status %d, want 200", firstCode)
	}
	if got := s.inflightQ.Value(); got != 0 {
		t.Fatalf("inflight gauge = %v after drain, want 0", got)
	}

	// The new robustness metrics surface on /metrics.
	rec, _ = get(t, s, "/metrics")
	for _, name := range []string{
		"bigindex_query_shed_total", "bigindex_queries_inflight",
		"bigindex_query_cancelled_total", "bigindex_panic_recovered_total",
	} {
		if !strings.Contains(rec.Body.String(), name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
}

// A panicking algorithm yields one 500 and an otherwise intact server: the
// panic is contained, counted, and the next request works normally.
func TestPanicRecovery(t *testing.T) {
	bomb := &stubAlgo{name: "bomb", fn: func(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
		panic("poisoned query")
	}}
	s, ds := robustServer(t, Options{
		ExtraAlgorithms: map[string]search.Algorithm{"bomb": bomb},
	})
	kw := popularTerm(ds)

	rec, body := get(t, s, "/query?q="+kw+"&algo=bomb&direct=1")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if body["error"] == nil {
		t.Fatal("500 without an error payload")
	}
	if got := s.panics.Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}

	rec, _ = get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", rec.Code)
	}
	rec, _ = get(t, s, "/query?q="+kw+"&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("query after panic: %d: %s", rec.Code, rec.Body.String())
	}
}

// Malformed numeric/duration parameters are client errors (400), not
// silently-applied defaults; absent parameters keep their defaults.
func TestMalformedParams(t *testing.T) {
	s, ds := robustServer(t, Options{})
	kw := popularTerm(ds)
	bad := []string{
		"/query?q=" + kw + "&k=abc",
		"/query?q=" + kw + "&k=2.5",
		"/query?q=" + kw + "&k=0",
		"/query?q=" + kw + "&k=-3",
		"/query?q=" + kw + "&k=101", // above the default MaxK of 100
		"/query?q=" + kw + "&layer=abc",
		"/query?q=" + kw + "&layer=99",
		"/query?q=" + kw + "&layer=-1", // negative is not "absent"
		"/query?q=" + kw + "&layer=-7",
		"/query?q=" + kw + "&timeout=abc",
		"/query?q=" + kw + "&timeout=-5s",
		"/query?q=" + kw + "&timeout=0s",
		"/query?q=" + kw + "&direct=abc",
		"/query?q=" + kw + "&nocache=2",
		"/query?q=" + kw + "&trace=abc",
		"/complete?prefix=term&limit=abc",
		"/complete?prefix=term&limit=0",
		"/complete?prefix=term&limit=-3",
		"/complete?prefix=term&limit=1000",
	}
	for _, path := range bad {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", path, rec.Code, rec.Body.String())
		}
		if body["error"] == nil {
			t.Fatalf("%s: 400 without an error payload", path)
		}
	}
	for _, path := range []string{
		"/query?q=" + kw,
		"/query?q=" + kw + "&timeout=5s",
		"/query?q=" + kw + "&k=100",
		"/query?q=" + kw + "&layer=0",
		"/complete?prefix=term",
		"/complete?prefix=term&limit=1",
		"/complete?prefix=term&limit=100",
	} {
		rec, _ := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200: %s", path, rec.Code, rec.Body.String())
		}
	}

	// A boolean's false spellings mean false: no direct baseline, the
	// cache is read (the plain query above stored the answer), no trace.
	rec, body := get(t, s, "/query?q="+kw+"&direct=0&nocache=false&trace=0")
	if rec.Code != http.StatusOK || body["direct"] != nil || body["cached"] != true || body["trace"] != nil {
		t.Fatalf("false booleans: %d %v", rec.Code, body)
	}

	// An absent algo names blinks, so a "blinks" plug-in runs for both
	// spellings, whichever comes first.
	for _, order := range [][]string{{"", "&algo=blinks"}, {"&algo=blinks", ""}} {
		var calls atomic.Int64
		shadow := &stubAlgo{name: "blinks", fn: func(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
			calls.Add(1)
			return []search.Match{{Root: 0, Score: 1}}, nil
		}}
		s, _ := robustServer(t, Options{ExtraAlgorithms: map[string]search.Algorithm{"blinks": shadow}})
		for i, algo := range order {
			rec, body := get(t, s, "/query?q="+kw+algo+"&direct=1&nocache=1")
			if rec.Code != http.StatusOK || body["algorithm"] != "blinks" || calls.Load() != int64(i+1) {
				t.Fatalf("order %q, query %q: %d %v, shadow calls %d", order, algo, rec.Code, body, calls.Load())
			}
		}
	}

	// A query shed without &algo= is recorded under the algorithm it
	// would have run.
	release := make(chan struct{})
	started := make(chan struct{})
	block := &stubAlgo{name: "block", fn: func(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
		close(started)
		<-release
		return nil, nil
	}}
	shed, _ := robustServer(t, Options{
		MaxInFlight:     1,
		ShedWait:        -1,
		ExtraAlgorithms: map[string]search.Algorithm{"block": block},
		Debug:           DebugOptions{Endpoints: true},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodGet, "/query?q="+kw+"&algo=block&direct=1", nil)
		shed.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-started
	if rec, _ := get(t, shed, "/query?q="+kw); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second query = %d, want 429", rec.Code)
	}
	close(release)
	<-done
	if _, body := get(t, shed, "/debug/traces?outcome=shed&algo=blinks"); len(body["traces"].([]interface{})) != 1 {
		t.Fatalf("want the shed trace under algo=blinks, got %v", body)
	}
}

// /readyz tracks the drain flag: 503 while draining, 200 otherwise.
func TestReadyzDraining(t *testing.T) {
	s, _ := robustServer(t, Options{})
	rec, _ := get(t, s, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d, want 200", rec.Code)
	}
	s.SetDraining(true)
	if !s.Draining() {
		t.Fatal("Draining() false after SetDraining(true)")
	}
	rec, _ = get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("readyz body: %q", rec.Body.String())
	}
	s.SetDraining(false)
	rec, _ = get(t, s, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz after drain cleared: %d, want 200", rec.Code)
	}
}

// writeJSON buffers the encode: a value that cannot marshal becomes a clean
// 500, never an implicit 200 with a truncated body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]interface{}{"ch": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Fatalf("body %q carries no error", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]string{"ok": "yes"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
}
