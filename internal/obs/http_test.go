package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestInstrumentMetricsAndLog(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))

	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Handler-side instrumentation: nested span + request log attrs.
		sp := SpanFromContext(r.Context())
		if sp == nil {
			t.Error("no span in request context")
		}
		sp.StartChild("work").End()
		AddLogAttrs(r.Context(), slog.String("algo", "blinks"), slog.Int("count", 3))
		w.WriteHeader(http.StatusTeapot)
	})
	h := Instrument(inner, HTTPOptions{
		Registry: reg,
		Logger:   logger,
		Normalize: func(r *http.Request) string {
			return "/normalized"
		},
	})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q=x", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rec.Code)
	}

	var expo strings.Builder
	reg.WritePrometheus(&expo)
	for _, want := range []string{
		`bigindex_http_requests_total{path="/normalized",code="418"} 1`,
		`bigindex_http_request_seconds_count{path="/normalized"} 1`,
		"bigindex_http_inflight_requests 0",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, expo.String())
		}
	}

	var entry map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &entry); err != nil {
		t.Fatalf("request log is not one JSON line: %v\n%s", err, logBuf.String())
	}
	if entry["msg"] != "request" || entry["method"] != "GET" ||
		entry["path"] != "/query" || entry["status"] != float64(418) {
		t.Fatalf("bad request log: %v", entry)
	}
	if entry["algo"] != "blinks" || entry["count"] != float64(3) {
		t.Fatalf("handler attrs missing from request log: %v", entry)
	}
	if _, ok := entry["elapsed"]; !ok {
		t.Fatalf("elapsed missing: %v", entry)
	}
}

func TestInstrumentLogsSlowRequest(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		SpanFromContext(r.Context()).StartChild("Search").End()
		time.Sleep(2 * time.Millisecond)
	})
	h := Instrument(inner, HTTPOptions{Registry: reg, Logger: logger, SlowQuery: time.Millisecond})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/q", nil))

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want request + slow lines, got %d:\n%s", len(lines), logBuf.String())
	}
	var slow map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &slow); err != nil {
		t.Fatal(err)
	}
	if slow["msg"] != "slow request" {
		t.Fatalf("second line is %v", slow["msg"])
	}
	traceStr, _ := slow["trace"].(string)
	var tree SpanJSON
	if err := json.Unmarshal([]byte(traceStr), &tree); err != nil {
		t.Fatalf("slow log trace is not span JSON: %v\n%s", err, traceStr)
	}
	if len(tree.Children) != 1 || tree.Children[0].Name != "Search" {
		t.Fatalf("slow trace tree: %+v", tree)
	}
	var expo strings.Builder
	reg.WritePrometheus(&expo)
	if !strings.Contains(expo.String(), "bigindex_http_slow_requests_total 1") {
		t.Fatalf("slow counter not recorded:\n%s", expo.String())
	}
}

func TestInstrumentWithoutRegistryOrLogger(t *testing.T) {
	called := false
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		called = true
	}), HTTPOptions{})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if !called {
		t.Fatal("handler not reached")
	}
}
