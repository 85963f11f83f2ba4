package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sync"
	"testing"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/faultio"
	"bigindex/internal/graph"
	"bigindex/internal/wal"
)

func postJSON(t *testing.T, s *Server, path string, body interface{}, hdr map[string]string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		js, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(js)
	}
	req := httptest.NewRequest(http.MethodPost, path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	out := map[string]interface{}{}
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return rec, out
}

// pickMutation returns an addable edge (absent from g) and a removable
// edge (present), both over existing vertices.
func pickMutation(t *testing.T, g *graph.Graph) (add, remove graph.Edge) {
	t.Helper()
	es := g.Edges()
	if len(es) == 0 {
		t.Skip("no edges")
	}
	remove = es[len(es)/2]
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for v := n - 1; v >= 0; v-- {
			if u != v && !g.HasEdge(graph.V(u), graph.V(v)) {
				return graph.Edge{From: graph.V(u), To: graph.V(v)}, remove
			}
		}
	}
	t.Skip("graph is complete")
	return
}

func mutationBody(add, remove *graph.Edge, addVerts ...string) map[string]interface{} {
	body := map[string]interface{}{}
	if add != nil {
		body["add_edges"] = []map[string]uint32{{"from": uint32(add.From), "to": uint32(add.To)}}
	}
	if remove != nil {
		body["remove_edges"] = []map[string]uint32{{"from": uint32(remove.From), "to": uint32(remove.To)}}
	}
	if len(addVerts) > 0 {
		body["add_vertices"] = addVerts
	}
	return body
}

func TestAdminEdgesAppliesBatch(t *testing.T) {
	s, ds := testServer(t)
	walPath := filepath.Join(t.TempDir(), "wal")
	l, _, err := wal.Open(walPath, wal.Options{BaseDigest: ds.Graph.Digest()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	NewMutator(s, 0, MutatorOptions{WAL: l})

	g0 := s.Index().Data()
	add, remove := pickMutation(t, g0)
	label := popularTerm(ds)

	rec, body := postJSON(t, s, "/admin/edges", mutationBody(&add, &remove, label), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("mutation: %d: %s", rec.Code, rec.Body.String())
	}
	if body["status"] != "applied" || body["seq"] != float64(1) || body["epoch"] != float64(1) {
		t.Fatalf("mutation body: %v", body)
	}

	// The served graph reflects the batch.
	g1 := s.Index().Data()
	if !g1.HasEdge(add.From, add.To) || g1.HasEdge(remove.From, remove.To) {
		t.Fatal("served graph does not reflect the mutation")
	}
	if g1.NumVertices() != g0.NumVertices()+1 {
		t.Fatalf("|V| = %d, want %d", g1.NumVertices(), g0.NumVertices()+1)
	}
	// Equivalence with the full-refresh path over the same patch.
	patched, err := graph.Patch(g0, []graph.Label{g0.Dict().Lookup(label)},
		[]graph.Edge{add}, []graph.Edge{remove})
	if err != nil {
		t.Fatal(err)
	}
	if g1.Digest() != patched.Digest() {
		t.Fatal("mutated data graph != graph.Patch result")
	}

	// The batch is durable: a fresh WAL open replays exactly it.
	l2, info, err := wal.Open(walPath, wal.Options{BaseDigest: ds.Graph.Digest()})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(info.Batches) != 1 || info.Batches[0].Seq != 1 ||
		len(info.Batches[0].AddEdges) != 1 || info.Batches[0].AddEdges[0] != add {
		t.Fatalf("WAL replay: %+v", info)
	}

	// /stats shows the mutation block and the bumped epoch.
	_, stats := get(t, s, "/stats")
	if stats["epoch"] != float64(1) {
		t.Fatalf("stats epoch: %v", stats["epoch"])
	}
	mb, _ := stats["mutation"].(map[string]interface{})
	if mb == nil || mb["seq"] != float64(1) {
		t.Fatalf("stats mutation block: %v", stats["mutation"])
	}
}

func TestAdminEdgesMatchesRefreshedAnswers(t *testing.T) {
	s, ds := testServer(t)
	NewMutator(s, 0, MutatorOptions{}) // no WAL: equivalence only
	g0 := s.Index().Data()
	add, remove := pickMutation(t, g0)

	rec, _ := postJSON(t, s, "/admin/edges", mutationBody(&add, &remove), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("mutation: %d: %s", rec.Code, rec.Body.String())
	}

	// Build a second server over the Refreshed(Patch(...)) index — the
	// ground-truth full-rebuild path — and compare query answers.
	patched, err := graph.Patch(g0, nil, []graph.Edge{add}, []graph.Edge{remove})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultBuildOptions()
	opt.Search.SampleCount = 30
	base, err := core.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Refreshed(patched)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(want, ds.Ont, Options{DMax: 3, BlockSize: 64})

	kw := popularTerm(ds)
	for _, algo := range []string{"bkws", "bidir", "blinks", "rclique"} {
		path := "/query?q=" + kw + "&algo=" + algo + "&k=5&nocache=1"
		_, got := get(t, s, path)
		_, exp := get(t, ref, path)
		if fmt.Sprint(got["matches"]) != fmt.Sprint(exp["matches"]) {
			t.Fatalf("%s: mutated-server answers != refreshed-server answers\ngot:  %v\nwant: %v",
				algo, got["matches"], exp["matches"])
		}
	}
}

// absorbableEdge returns an edge absent from the data graph that keeps
// layer 1's partition intact: it copies an existing edge (u, w) onto a
// block-mate of u and a block-mate of w, and every block-mate of u
// already sees w's block.
func absorbableEdge(t *testing.T, idx *core.Index) graph.Edge {
	t.Helper()
	if idx.NumLayers() < 2 {
		t.Skip("need summary layers")
	}
	g, l1 := idx.Data(), idx.Layer(1)
	for _, e := range g.Edges() {
		for _, u := range l1.Down[l1.Up[e.From]] {
			for _, w := range l1.Down[l1.Up[e.To]] {
				if !g.HasEdge(u, w) {
					return graph.Edge{From: u, To: w}
				}
			}
		}
	}
	t.Skip("no absorbable edge")
	return graph.Edge{}
}

// movingRemoval returns an edge (u, w) whose source has no other
// successor in w's layer-1 block: removing it changes u's signature, so
// u leaves its block and layer 1 changes.
func movingRemoval(t *testing.T, idx *core.Index) graph.Edge {
	t.Helper()
	g, up := idx.Data(), idx.Layer(1).Up
	for _, e := range g.Edges() {
		same := 0
		for _, w := range g.Out(e.From) {
			if up[w] == up[e.To] {
				same++
			}
		}
		if same == 1 {
			return e
		}
	}
	t.Skip("no removal moves a vertex")
	return graph.Edge{}
}

// The absorbed path end to end over HTTP: a signature-preserving pure-add
// batch swaps in a new index that shares every summary layer with the old
// one, still bumps the epoch (so a pre-batch cache entry is never served),
// and a removal that moves a vertex to another layer-1 block is a delta.
func TestAdminEdgesAbsorbedPath(t *testing.T) {
	s, ds := testServer(t)
	NewMutator(s, 0, MutatorOptions{})
	before := s.Index()

	path := "/query?q=" + url.QueryEscape(popularTerm(ds)) + "&k=5"
	if rec, _ := get(t, s, path); rec.Code != http.StatusOK {
		t.Fatalf("warm query: %d %s", rec.Code, rec.Body.String())
	}
	if _, body := get(t, s, path); body["cached"] != true {
		t.Fatal("setup: repeat query not cached")
	}

	add := absorbableEdge(t, before)
	rec, body := postJSON(t, s, "/admin/edges", mutationBody(&add, nil), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("mutation: %d: %s", rec.Code, rec.Body.String())
	}
	if body["path"] != "absorbed" || body["epoch"] != float64(before.Epoch()+1) {
		t.Fatalf("absorbed batch: %v", body)
	}
	after := s.Index()
	if !after.Data().HasEdge(add.From, add.To) {
		t.Fatal("served graph lacks the absorbed edge")
	}
	if after.NumLayers() != before.NumLayers() {
		t.Fatalf("layers %d, want %d", after.NumLayers(), before.NumLayers())
	}
	for j := 1; j < after.NumLayers(); j++ {
		if after.LayerGraph(j) != before.LayerGraph(j) {
			t.Fatalf("layer %d was rebuilt, want it reused", j)
		}
	}
	if _, body := get(t, s, path); body["cached"] == true {
		t.Fatal("post-batch query served the pre-batch cache entry")
	}

	remove := movingRemoval(t, after)
	rec, body = postJSON(t, s, "/admin/edges", mutationBody(nil, &remove), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("removal: %d: %s", rec.Code, rec.Body.String())
	}
	if body["path"] != "delta" || body["epoch"] != float64(before.Epoch()+2) {
		t.Fatalf("removal batch: %v", body)
	}
}

func TestAdminEdgesValidation(t *testing.T) {
	s, _ := testServer(t)
	NewMutator(s, 0, MutatorOptions{})
	g := s.Index().Data()
	add, remove := pickMutation(t, g)
	n := uint32(g.NumVertices())

	cases := []struct {
		name string
		body map[string]interface{}
	}{
		{"empty batch", map[string]interface{}{}},
		{"unknown label", mutationBody(nil, nil, "no-such-label-xyz")},
		{"existing edge add", mutationBody(&remove, nil)},
		{"absent edge remove", mutationBody(nil, &add)},
		{"out of range add", map[string]interface{}{
			"add_edges": []map[string]uint32{{"from": n + 5, "to": 0}}}},
		{"out of range remove", map[string]interface{}{
			"remove_edges": []map[string]uint32{{"from": n + 5, "to": 0}}}},
		{"duplicate add", map[string]interface{}{
			"add_edges": []map[string]uint32{
				{"from": uint32(add.From), "to": uint32(add.To)},
				{"from": uint32(add.From), "to": uint32(add.To)}}}},
		{"add and remove overlap", map[string]interface{}{
			"add_edges":    []map[string]uint32{{"from": uint32(add.From), "to": uint32(add.To)}},
			"remove_edges": []map[string]uint32{{"from": uint32(add.From), "to": uint32(add.To)}}}},
		{"unknown field", map[string]interface{}{"nonsense": 1}},
	}
	for _, tc := range cases {
		rec, _ := postJSON(t, s, "/admin/edges", tc.body, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400: %s", tc.name, rec.Code, rec.Body.String())
		}
	}
	// Nothing was applied.
	if got := s.Index().Epoch(); got != 0 {
		t.Fatalf("rejected batches advanced epoch to %d", got)
	}
	if seq := s.mutator.Load().Health().Seq; seq != 0 {
		t.Fatalf("rejected batches advanced seq to %d", seq)
	}
}

func TestAdminEdgesWALFailureRejectsBatch(t *testing.T) {
	s, ds := testServer(t)
	l, _, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.Options{
		BaseDigest: ds.Graph.Digest(),
		Hooks:      wal.Hooks{WrapWriter: func(w io.Writer) io.Writer { return faultio.FailWriter(w, 3) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	NewMutator(s, 0, MutatorOptions{WAL: l})

	add, _ := pickMutation(t, s.Index().Data())
	rec, _ := postJSON(t, s, "/admin/edges", mutationBody(&add, nil), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("mutation with failing WAL: %d, want 503: %s", rec.Code, rec.Body.String())
	}
	// Not acknowledged → not applied: epoch and graph unchanged.
	if got := s.Index().Epoch(); got != 0 {
		t.Fatalf("failed batch advanced epoch to %d", got)
	}
	if s.Index().Data().HasEdge(add.From, add.To) {
		t.Fatal("failed batch mutated the served graph")
	}
}

func TestAdminTokenGate(t *testing.T) {
	ds := datagen.Generate(datagen.Options{
		Name: "srv", Entities: 1200, Terms: 100, LeafTypes: 8, Seed: 99,
	})
	opt := core.DefaultBuildOptions()
	opt.Search.SampleCount = 30
	idx, err := core.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := New(idx, ds.Ont, Options{DMax: 3, BlockSize: 64, AdminToken: "sesame"})
	NewMutator(s, 0, MutatorOptions{})
	add, _ := pickMutation(t, s.Index().Data())

	// /admin/reload is not routed: 404, token or not.
	for _, hdr := range []map[string]string{nil, {"X-Admin-Token": "sesame"}} {
		if rec, _ := postJSON(t, s, "/admin/reload", nil, hdr); rec.Code != http.StatusNotFound {
			t.Fatalf("POST /admin/reload (token %v): %d, want 404", hdr != nil, rec.Code)
		}
	}
	for _, path := range []string{"/admin/edges", "/admin/compact"} {
		// GET is rejected with 405 + Allow before anything else.
		rec, _ := get(t, s, path)
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
			t.Fatalf("GET %s: %d Allow=%q", path, rec.Code, rec.Header().Get("Allow"))
		}
		// POST without or with a wrong token: 401.
		if rec, _ := postJSON(t, s, path, nil, nil); rec.Code != http.StatusUnauthorized {
			t.Fatalf("POST %s without token: %d, want 401", path, rec.Code)
		}
		if rec, _ := postJSON(t, s, path, nil, map[string]string{"X-Admin-Token": "wrong"}); rec.Code != http.StatusUnauthorized {
			t.Fatalf("POST %s wrong token: %d, want 401", path, rec.Code)
		}
	}

	// A correct token passes the gate (both header forms) and reaches the
	// handler: /admin/edges applies, /admin/compact reports its wiring state.
	rec, _ := postJSON(t, s, "/admin/edges", mutationBody(&add, nil),
		map[string]string{"X-Admin-Token": "sesame"})
	if rec.Code != http.StatusOK {
		t.Fatalf("authorized mutation: %d: %s", rec.Code, rec.Body.String())
	}
	rec, _ = postJSON(t, s, "/admin/compact", nil,
		map[string]string{"Authorization": "Bearer sesame"})
	if rec.Code == http.StatusUnauthorized {
		t.Fatalf("authorized compact: %d, want past the gate", rec.Code)
	}
}

// In-flight queries run against a consistent index bundle while mutation
// batches swap new versions in underneath them; run with -race this is the
// hot-swap safety proof.
func TestQueriesDuringSwaps(t *testing.T) {
	s, ds := testServer(t)
	NewMutator(s, 0, MutatorOptions{})
	kw := popularTerm(ds)

	var wg, started sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		started.Add(1)
		go func(algo string) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, "/query?q="+kw+"&algo="+algo+"&k=3", nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if n == 0 {
					started.Done()
				}
				if rec.Code != http.StatusOK {
					t.Errorf("%s during swap: %d: %s", algo, rec.Code, rec.Body.String())
					return
				}
			}
		}([]string{"bkws", "bidir", "blinks", "rclique"}[i])
	}
	started.Wait() // every reader is in its loop before the first swap
	// Remove an edge, put it back, remove it again: three batches, three swaps.
	e := s.Index().Data().Edges()[0]
	for i, body := range []map[string]interface{}{
		mutationBody(nil, &e), mutationBody(&e, nil), mutationBody(nil, &e),
	} {
		if rec, _ := postJSON(t, s, "/admin/edges", body, nil); rec.Code != http.StatusOK {
			t.Errorf("batch %d: %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	close(stop)
	wg.Wait()
	if got := s.Index().Epoch(); got != 3 {
		t.Fatalf("epoch = %d, want 3", got)
	}
}

func TestAdminCompact(t *testing.T) {
	s, ds := testServer(t)
	walPath := filepath.Join(t.TempDir(), "wal")
	l, _, err := wal.Open(walPath, wal.Options{BaseDigest: ds.Graph.Digest()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	persisted := 0
	var persistedSeq uint64
	failPersist := false
	NewMutator(s, 0, MutatorOptions{
		WAL: l,
		Persist: func(_ context.Context, idx *core.Index, seq uint64) error {
			if failPersist {
				return fmt.Errorf("injected persist failure")
			}
			persisted++
			persistedSeq = seq
			return nil
		},
	})

	add, remove := pickMutation(t, s.Index().Data())
	if rec, _ := postJSON(t, s, "/admin/edges", mutationBody(&add, &remove), nil); rec.Code != http.StatusOK {
		t.Fatalf("mutation: %d", rec.Code)
	}
	preSize := l.Size()

	// Persist failure leaves the WAL untouched (records still replayable).
	failPersist = true
	if rec, _ := postJSON(t, s, "/admin/compact", nil, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("compact with failing persist: %d, want 503", rec.Code)
	}
	if l.Size() != preSize {
		t.Fatal("failed compaction truncated the WAL")
	}

	failPersist = false
	rec, body := postJSON(t, s, "/admin/compact", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("compact: %d: %s", rec.Code, rec.Body.String())
	}
	if persisted != 1 || persistedSeq != 1 {
		t.Fatalf("persist called %d times, seq %d", persisted, persistedSeq)
	}
	if body["covered_seq"] != float64(1) {
		t.Fatalf("compact body: %v", body)
	}
	if l.Size() >= preSize {
		t.Fatalf("compaction did not truncate (size %d >= %d)", l.Size(), preSize)
	}

	// Sequence numbering continues after compaction.
	add2, _ := pickMutation(t, s.Index().Data())
	rec, body = postJSON(t, s, "/admin/edges", mutationBody(&add2, nil), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-compact mutation: %d: %s", rec.Code, rec.Body.String())
	}
	if body["seq"] != float64(2) {
		t.Fatalf("post-compact seq: %v, want 2", body["seq"])
	}
}

func TestAutoCompaction(t *testing.T) {
	s, ds := testServer(t)
	l, _, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.Options{BaseDigest: ds.Graph.Digest()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	NewMutator(s, 0, MutatorOptions{
		WAL:         l,
		MaxWALBytes: 1, // every apply exceeds this → compact immediately
		Persist:     func(context.Context, *core.Index, uint64) error { return nil },
	})
	add, _ := pickMutation(t, s.Index().Data())
	rec, body := postJSON(t, s, "/admin/edges", mutationBody(&add, nil), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("mutation: %d", rec.Code)
	}
	if body["compacted"] != true {
		t.Fatalf("auto-compaction did not run: %v", body)
	}
	if l.Size() != 16 { // bare header
		t.Fatalf("WAL size after auto-compaction: %d", l.Size())
	}
}
