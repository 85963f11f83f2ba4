package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bigindex/internal/datagen"
	"bigindex/internal/graph"
	"bigindex/internal/search"
)

// twoTerms returns the two most frequent label names (both resolve
// exactly through the text index).
func twoTerms(t *testing.T, ds *datagen.Dataset) (string, string) {
	t.Helper()
	a, b := "", ""
	ac, bc := 0, 0
	for _, l := range ds.Graph.DistinctLabels() {
		c := ds.Graph.LabelCount(l)
		name := ds.Graph.Dict().Name(l)
		switch {
		case c > ac:
			b, bc = a, ac
			a, ac = name, c
		case c > bc:
			b, bc = name, c
		}
	}
	if a == "" || b == "" {
		t.Fatal("dataset has fewer than two labels")
	}
	return a, b
}

// A repeated query must be served from the cache: same answers, one
// entry, "cached": true on the second response, and the qcache metric
// families visible on /metrics.
func TestQueryCachedOnRepeat(t *testing.T) {
	s, ds := testServer(t)
	path := "/query?q=" + url.QueryEscape(popularTerm(ds)) + "&k=5"

	rec, first := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("first query: %d %s", rec.Code, rec.Body.String())
	}
	if first["cached"] != nil {
		t.Fatalf("first query claims cached: %v", first["cached"])
	}
	rec, second := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("second query: %d %s", rec.Code, rec.Body.String())
	}
	if second["cached"] != true {
		t.Fatalf("second query not cached: %v", second)
	}
	if !reflect.DeepEqual(first["matches"], second["matches"]) {
		t.Fatal("cached matches differ from computed matches")
	}
	if first["layer"] != second["layer"] {
		t.Fatalf("cached layer %v != computed layer %v", second["layer"], first["layer"])
	}
	if st := s.Cache().Stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after one repeat: %+v", st)
	}

	rec, _ = get(t, s, "/metrics")
	for _, name := range []string{
		"bigindex_qcache_hits_total", "bigindex_qcache_misses_total",
		"bigindex_qcache_hit_ratio", "bigindex_query_cache_seconds",
	} {
		if !strings.Contains(rec.Body.String(), name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
}

// &nocache=1 bypasses the cache: nothing is stored and nothing is
// served from it.
func TestNocacheBypasses(t *testing.T) {
	s, ds := testServer(t)
	path := "/query?q=" + url.QueryEscape(popularTerm(ds)) + "&nocache=1"
	for i := 0; i < 2; i++ {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if body["cached"] != nil {
			t.Fatalf("nocache query %d served from cache: %v", i, body)
		}
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("nocache stored %d entries", n)
	}
}

// Options.Cache.Size < 0 disables caching entirely; queries still work.
func TestCacheDisabled(t *testing.T) {
	s, ds := robustServer(t, Options{Cache: CacheOptions{Size: -1}})
	if s.Cache() != nil {
		t.Fatal("cache built despite Size < 0")
	}
	path := "/query?q=" + url.QueryEscape(popularTerm(ds))
	for i := 0; i < 2; i++ {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if body["cached"] != nil {
			t.Fatalf("disabled cache served a hit: %v", body)
		}
	}
}

// Semantically identical queries — "b,a,a" vs "a,b" — are one query:
// identical answers and a single cache entry (the second request hits).
func TestCanonicalKeywordsShareEntry(t *testing.T) {
	s, ds := testServer(t)
	a, b := twoTerms(t, ds)

	rec, first := get(t, s, "/query?q="+url.QueryEscape(b+","+a+","+a))
	if rec.Code != http.StatusOK {
		t.Fatalf("b,a,a: %d %s", rec.Code, rec.Body.String())
	}
	rec, second := get(t, s, "/query?q="+url.QueryEscape(a+","+b))
	if rec.Code != http.StatusOK {
		t.Fatalf("a,b: %d %s", rec.Code, rec.Body.String())
	}
	if !reflect.DeepEqual(first["matches"], second["matches"]) {
		t.Fatal("b,a,a and a,b returned different results")
	}
	if second["cached"] != true {
		t.Fatal("a,b did not hit the entry stored by b,a,a")
	}
	if n := s.Cache().Len(); n != 1 {
		t.Fatalf("canonicalized permutations created %d entries, want 1", n)
	}
}

// A degraded (deadline-partial) result must never be cached: a later
// identical query with a healthy deadline reruns the evaluation and the
// full answer is what gets stored.
func TestDegradedResultNotCached(t *testing.T) {
	var calls atomic.Int64
	flaky := &stubAlgo{name: "flaky", fn: func(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
		if calls.Add(1) == 1 {
			ms := []search.Match{{Root: 0, Score: 1}}
			<-ctx.Done() // first call: hold a partial until the deadline fires
			return ms, context.Cause(ctx)
		}
		return []search.Match{{Root: 0, Score: 1}, {Root: 1, Score: 2}}, nil
	}}
	s, ds := robustServer(t, Options{
		ExtraAlgorithms: map[string]search.Algorithm{"flaky": flaky},
	})
	base := "/query?q=" + url.QueryEscape(popularTerm(ds)) + "&algo=flaky&direct=1"

	rec, body := get(t, s, base+"&timeout=50ms")
	if rec.Code != http.StatusOK || body["degraded"] != true {
		t.Fatalf("degraded query: %d %v", rec.Code, body)
	}
	if body["cached"] != nil {
		t.Fatalf("degraded response claims cached: %v", body)
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("degraded result was stored (%d entries)", n)
	}

	rec, body = get(t, s, base)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy query: %d %s", rec.Code, rec.Body.String())
	}
	if body["degraded"] == true || body["cached"] == true {
		t.Fatalf("healthy query served the degraded partial: %v", body)
	}
	if cnt, _ := body["count"].(float64); cnt != 2 {
		t.Fatalf("healthy query count = %v, want 2 (full recompute)", body["count"])
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("evaluations = %d, want 2 (degraded then healthy)", got)
	}

	rec, body = get(t, s, base)
	if rec.Code != http.StatusOK || body["cached"] != true {
		t.Fatalf("healthy result not cached: %d %v", rec.Code, body)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("cached follow-up re-evaluated: calls = %d", got)
	}
}

// Fifty concurrent identical queries run exactly one evaluation: one
// singleflight leader computes, the other forty-nine share its result.
func TestConcurrentIdenticalQueriesEvalOnce(t *testing.T) {
	const n = 50
	var calls atomic.Int64
	release := make(chan struct{})
	slow := &stubAlgo{name: "sf", fn: func(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
		calls.Add(1)
		<-release
		return []search.Match{{Root: 0, Score: 1}}, nil
	}}
	s, ds := robustServer(t, Options{
		ExtraAlgorithms: map[string]search.Algorithm{"sf": slow},
	})
	kw := popularTerm(ds)
	vals := url.Values{"q": {kw}, "algo": {"sf"}, "direct": {"1"}}
	req, err := s.parseRequest(s.st(), vals)
	if err != nil {
		t.Fatal(err)
	}
	key := req.key(s.Index().Epoch())
	path := "/query?" + vals.Encode()

	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			codes <- rec.Code
		}()
	}
	// Wait until the leader is inside the evaluation and every other
	// request is parked on its singleflight call, then let it finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.Cache().Waiters(key) != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never parked: %d/%d", s.Cache().Waiters(key), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("concurrent query status %d", c)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("evaluations = %d, want 1", got)
	}
	if st := s.Cache().Stats(); st.Misses != 1 || st.Shared != n-1 {
		t.Fatalf("outcomes: %+v, want 1 miss and %d shared", st, n-1)
	}
	rec, body := get(t, s, path)
	if rec.Code != http.StatusOK || body["cached"] != true {
		t.Fatalf("follow-up not a hit: %d %v", rec.Code, body)
	}
}

// Refresh mid-flight: a result computed before a refreshed index is
// swapped in is stored under the old epoch and can never answer
// post-refresh traffic, even when the evaluation finishes after the swap.
func TestRefreshMidFlightNeverServesStale(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	gen := &stubAlgo{name: "gen", fn: func(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
		c := calls.Add(1)
		if c == 1 {
			<-release // finish only after the swap below has landed
		}
		return []search.Match{{Root: 0, Score: float64(c)}}, nil
	}}
	s, ds := robustServer(t, Options{
		ExtraAlgorithms: map[string]search.Algorithm{"gen": gen},
	})
	path := "/query?q=" + url.QueryEscape(popularTerm(ds)) + "&algo=gen&direct=1"

	done := make(chan map[string]interface{}, 1)
	go func() {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		var body map[string]interface{}
		_ = json.Unmarshal(rec.Body.Bytes(), &body)
		done <- body
	}()
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("pre-refresh evaluation never started")
		}
		time.Sleep(time.Millisecond)
	}
	next, err := s.Index().Refreshed(ds.Graph)
	if err != nil {
		t.Fatalf("Refreshed: %v", err)
	}
	s.SwapIndex(next)
	if got := s.Index().Epoch(); got != 1 {
		t.Fatalf("epoch after Refreshed = %d, want 1", got)
	}
	close(release)
	<-done // pre-refresh result is now stored, under epoch 0

	rec, body := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-refresh query: %d %s", rec.Code, rec.Body.String())
	}
	if body["cached"] == true {
		t.Fatal("post-refresh query served the pre-refresh entry")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("post-refresh query did not re-evaluate: calls = %d", got)
	}
	ms, _ := body["matches"].([]interface{})
	if len(ms) != 1 {
		t.Fatalf("matches: %v", body["matches"])
	}
	if score := ms[0].(map[string]interface{})["score"]; score != 2.0 {
		t.Fatalf("post-refresh score = %v, want 2 (fresh evaluation)", score)
	}
	// The epoch sweep dropped the stale entry; only the fresh one remains.
	if n := s.Cache().Len(); n != 1 {
		t.Fatalf("cache holds %d entries after refresh, want 1", n)
	}
	rec, body = get(t, s, path)
	if rec.Code != http.StatusOK || body["cached"] != true {
		t.Fatalf("post-refresh repeat not a hit: %d %v", rec.Code, body)
	}
}

// Warm evaluates a workload file through the cached path: comments and
// blanks are skipped, bad lines are reported without aborting the
// sweep, and warmed queries hit on their first live request.
func TestWarm(t *testing.T) {
	s, ds := testServer(t)
	kw := popularTerm(ds)
	n, err := s.Warm(context.Background(), []string{
		"# workload",
		"",
		kw,
		kw + " | bkws | 5",
		"zzzznotaterm",
		kw + " | bkws | 101", // k above MaxK: the same check /query makes
	})
	if n != 2 {
		t.Fatalf("warmed %d queries, want 2 (err %v)", n, err)
	}
	if err == nil || !strings.Contains(err.Error(), "zzzznotaterm") ||
		!strings.Contains(err.Error(), "k=101 out of range") {
		t.Fatalf("bad lines not reported: %v", err)
	}
	if got := s.Cache().Len(); got != 2 {
		t.Fatalf("cache entries after warm = %d, want 2", got)
	}
	rec, body := get(t, s, "/query?q="+url.QueryEscape(kw))
	if rec.Code != http.StatusOK || body["cached"] != true {
		t.Fatalf("warmed query not a hit: %d %v", rec.Code, body)
	}

	off, _ := robustServer(t, Options{Cache: CacheOptions{Size: -1}})
	if _, err := off.Warm(context.Background(), []string{kw}); err == nil {
		t.Fatal("Warm on a disabled cache did not error")
	}
}
