package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
)

func testServer(t testing.TB) (*Server, *datagen.Dataset) {
	t.Helper()
	ds := datagen.Generate(datagen.Options{
		Name: "srv", Entities: 1200, Terms: 100, LeafTypes: 8, Seed: 99,
	})
	opt := core.DefaultBuildOptions()
	opt.Search.SampleCount = 30
	idx, err := core.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	return New(idx, ds.Ont, Options{DMax: 3, BlockSize: 64}), ds
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]interface{}
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec, body
}

func popularTerm(ds *datagen.Dataset) string {
	best := ""
	bestC := 0
	for _, l := range ds.Graph.DistinctLabels() {
		if c := ds.Graph.LabelCount(l); c > bestC {
			bestC = c
			best = ds.Graph.Dict().Name(l)
		}
	}
	return best
}

func TestHealthAndStats(t *testing.T) {
	s, _ := testServer(t)
	rec, _ := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	rec, body := get(t, s, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	if body["graph"] == nil || body["layers"] == nil {
		t.Fatalf("stats body: %v", body)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s, ds := testServer(t)
	kw := popularTerm(ds)

	for _, algo := range []string{"blinks", "bkws", "bidir", "rclique"} {
		rec, body := get(t, s, "/query?q="+kw+"&algo="+algo+"&k=5")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", algo, rec.Code, rec.Body.String())
		}
		if body["algorithm"] != algo {
			t.Fatalf("%s: echoed algorithm %v", algo, body["algorithm"])
		}
		cnt, _ := body["count"].(float64)
		if cnt < 1 {
			t.Fatalf("%s: no matches for the most popular term", algo)
		}
		if cnt > 5 {
			t.Fatalf("%s: k not honored: %v", algo, cnt)
		}
	}

	// Direct mode, and a free-text (tokenized) keyword.
	rec, body := get(t, s, "/query?q="+kw+"&direct=1")
	if rec.Code != http.StatusOK || body["direct"] != true {
		t.Fatalf("direct: %d %v", rec.Code, body)
	}
	tokens := strings.Split(kw, "/")
	free := tokens[len(tokens)-1]
	rec, _ = get(t, s, "/query?q="+free)
	if rec.Code != http.StatusOK {
		t.Fatalf("free-text: %d %s", rec.Code, rec.Body.String())
	}
}

func TestQueryErrors(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/query")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing q: %d", rec.Code)
	}
	if body["error"] == nil {
		t.Fatal("missing error payload")
	}
	rec, _ = get(t, s, "/query?q=zzzznotaterm")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unresolvable keyword: %d", rec.Code)
	}
	rec, _ = get(t, s, "/query?q=a&algo=nonsense")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad algo: %d", rec.Code)
	}
}

func TestExplainAndComplete(t *testing.T) {
	s, ds := testServer(t)
	kw := popularTerm(ds)
	rec, body := get(t, s, "/explain?q="+kw)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", rec.Code, rec.Body.String())
	}
	layers, _ := body["layers"].([]interface{})
	if len(layers) == 0 {
		t.Fatal("explain returned no layers")
	}

	rec, body = get(t, s, "/complete?prefix=term&limit=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("complete: %d", rec.Code)
	}
	comps, _ := body["completions"].([]interface{})
	if len(comps) == 0 || len(comps) > 5 {
		t.Fatalf("completions: %v", comps)
	}
}

// TestConcurrentQueries exercises the shared-evaluator path under load
// (run with -race in CI).
func TestConcurrentQueries(t *testing.T) {
	s, ds := testServer(t)
	kw := popularTerm(ds)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			algo := []string{"blinks", "bkws"}[i%2]
			req := httptest.NewRequest(http.MethodGet, "/query?q="+kw+"&algo="+algo, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				errs <- rec.Body.String()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent query failed: %s", e)
	}
}
