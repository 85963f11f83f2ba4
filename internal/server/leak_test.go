package server

import (
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
)

// bootQueryDrop builds an index, serves one request from it and lets
// everything go. It returns how many layer graphs it armed a finalizer on.
//
//go:noinline
func bootQueryDrop(t *testing.T, seed int64, path func(kw string) string, collected *atomic.Int64) int {
	ds := datagen.Generate(datagen.Options{
		Name: "leak", Entities: 600, Terms: 60, LeafTypes: 6, Seed: seed,
	})
	opt := core.DefaultBuildOptions()
	opt.Search.SampleCount = 20
	idx, err := core.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < idx.NumLayers(); m++ {
		runtime.SetFinalizer(idx.LayerGraph(m), func(interface{}) { collected.Add(1) })
	}
	s := New(idx, ds.Ont, Options{DMax: 3, BlockSize: 64})
	req := path(popularTerm(ds))
	if rec, _ := get(t, s, req); rec.Code != http.StatusOK {
		t.Fatalf("%s: %d %s", req, rec.Code, rec.Body.String())
	}
	return idx.NumLayers()
}

// TestServedGraphsAreCollectable: a server that has answered a request
// must not keep its graphs reachable once it is dropped. Routing used to
// memoize per-graph branching factors in a process-wide map, which pinned
// every layer graph of every index the process had ever routed over —
// one data graph per boot or /admin/edges batch.
func TestServedGraphsAreCollectable(t *testing.T) {
	for name, path := range map[string]func(string) string{
		"query":   func(kw string) string { return "/query?q=" + kw + "&k=3&nocache=1" },
		"explain": func(kw string) string { return "/explain?q=" + kw },
	} {
		t.Run(name, func(t *testing.T) {
			var collected atomic.Int64
			armed := 0
			for boot := 0; boot < 4; boot++ {
				armed += bootQueryDrop(t, int64(300+boot), path, &collected)
			}
			// Finalizers run on their own goroutine after the cycle that
			// found the object unreachable.
			deadline := time.Now().Add(5 * time.Second)
			for collected.Load() < int64(armed) && time.Now().Before(deadline) {
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			if got := collected.Load(); got != int64(armed) {
				t.Fatalf("%d of %d layer graphs still reachable after their servers were dropped", int64(armed)-got, armed)
			}
		})
	}
}
