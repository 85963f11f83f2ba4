package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
	"bigindex/internal/server"
)

// slowAlgo holds one query open until released, so the drain test can pin an
// in-flight request across the shutdown signal.
type slowAlgo struct {
	started chan struct{}
	release chan struct{}
}

func (a *slowAlgo) Name() string                                    { return "slow" }
func (a *slowAlgo) Prepare(g *graph.Graph) (search.Prepared, error) { return &slowPrepared{a}, nil }
func (a *slowAlgo) NewGeneration(data *graph.Graph, q []graph.Label, opt search.GenOptions) search.Generation {
	return slowGen{}
}

type slowPrepared struct{ a *slowAlgo }

func (p *slowPrepared) Search(q []graph.Label, k int) ([]search.Match, error) {
	return p.SearchCtx(context.Background(), q, k)
}
func (p *slowPrepared) SearchCtx(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
	select {
	case p.a.started <- struct{}{}:
	default:
	}
	select {
	case <-p.a.release:
		return []search.Match{{Root: 0, Score: 1}}, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

type slowGen struct{}

func (slowGen) Generate(rootCands []graph.V, cands [][]graph.V) []search.Match { return nil }
func (slowGen) GenerateCtx(ctx context.Context, rootCands []graph.V, cands [][]graph.V) []search.Match {
	return nil
}

// The daemon's cache flags say 0 = off/unbounded; server.Options says
// 0 = default and negative = off/unbounded. cacheOptions translates.
func TestCacheOptionsMapping(t *testing.T) {
	co := cacheOptions(0, 0, 0)
	if co.Size != -1 || co.TTL != -1 || co.Bytes != -1 {
		t.Fatalf("zero flags should disable: %+v", co)
	}
	co = cacheOptions(128, time.Second, 1<<20)
	if co.Size != 128 || co.TTL != time.Second || co.Bytes != 1<<20 {
		t.Fatalf("positive flags should pass through: %+v", co)
	}
}

// -warm-file pre-populates the cache before the listener opens; bad
// lines are logged but never fatal.
func TestWarmCacheFile(t *testing.T) {
	ds := datagen.Generate(datagen.Options{
		Name: "warm", Entities: 200, Terms: 40, LeafTypes: 6, Seed: 11,
	})
	bopt := core.DefaultBuildOptions()
	bopt.Search.SampleCount = 20
	idx, err := core.Build(ds.Graph, ds.Ont, bopt)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(idx, ds.Ont, server.Options{DMax: 3})

	kw := ""
	bestC := 0
	for _, l := range ds.Graph.DistinctLabels() {
		if c := ds.Graph.LabelCount(l); c > bestC {
			bestC = c
			kw = ds.Graph.Dict().Name(l)
		}
	}
	path := t.TempDir() + "/warm.txt"
	content := "# workload\n" + kw + "\n" + kw + " | bkws | 5\nzzzznotaterm\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := warmCache(srv, obs.DiscardLogger(), path); err != nil {
		t.Fatalf("warmCache: %v", err)
	}
	if got := srv.Cache().Len(); got != 2 {
		t.Fatalf("cache entries after warm = %d, want 2", got)
	}
	if err := warmCache(srv, obs.DiscardLogger(), path+".missing"); err == nil {
		t.Fatal("missing warm file not reported")
	}
}

// TestGracefulDrain drives the serve loop end to end over a real listener:
// a shutdown signal flips /readyz to 503 during the grace window, the
// in-flight query is allowed to finish with a 200, and serve returns nil
// (the daemon's clean exit 0).
func TestGracefulDrain(t *testing.T) {
	ds := datagen.Generate(datagen.Options{
		Name: "drain", Entities: 200, Terms: 40, LeafTypes: 6, Seed: 3,
	})
	bopt := core.DefaultBuildOptions()
	bopt.Search.SampleCount = 20
	idx, err := core.Build(ds.Graph, ds.Ont, bopt)
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowAlgo{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv := server.New(idx, ds.Ont, server.Options{
		DMax:            3,
		ExtraAlgorithms: map[string]search.Algorithm{"slow": slow},
	})
	httpSrv := &http.Server{Handler: srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(ln, httpSrv, srv, obs.DiscardLogger(), 600*time.Millisecond, 10*time.Second, sigs)
	}()
	base := "http://" + ln.Addr().String()

	// A keyword guaranteed to resolve: the most frequent label name.
	kw := ""
	bestC := 0
	for _, l := range ds.Graph.DistinctLabels() {
		if c := ds.Graph.LabelCount(l); c > bestC {
			bestC = c
			kw = ds.Graph.Dict().Name(l)
		}
	}

	type result struct {
		code int
		body string
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/query?q=" + url.QueryEscape(kw) + "&algo=slow&direct=1")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- result{code: resp.StatusCode, body: string(b)}
	}()
	<-slow.started

	// Before the signal the server is ready.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before signal: %d", resp.StatusCode)
	}

	sigs <- syscall.SIGTERM

	// During the grace window the listener still accepts and /readyz says
	// 503, which is how load balancers learn to stop routing here.
	saw503 := false
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break // grace elapsed and the listener closed; acceptable
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			saw503 = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !saw503 {
		t.Fatal("readyz never reported 503 during the drain grace window")
	}

	// The in-flight query outlives the signal and completes normally.
	close(slow.release)
	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", res.err)
	}
	if res.code != http.StatusOK || !strings.Contains(res.body, `"count"`) {
		t.Fatalf("in-flight query: status %d body %s", res.code, res.body)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want nil for a clean exit", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not return after drain")
	}
}
