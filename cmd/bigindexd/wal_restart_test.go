package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/server"
	"bigindex/internal/snapshot"
	"bigindex/internal/wal"
)

// walServer assembles the daemon's serving stack around an index that came
// out of bootIndex with a WAL, mirroring main(): mutator wired with the WAL
// and a snapshot persist hook, cache off so every answer is a fresh
// evaluation.
func walServer(t *testing.T, ds *datagen.Dataset, idx *core.Index,
	wlog *wal.Log, seq uint64, snapPath string, saveSec *obs.Gauge) (*server.Server, *server.Mutator) {
	t.Helper()
	srv := server.New(idx, ds.Ont, server.Options{
		DMax: 3, BlockSize: 64, Cache: server.CacheOptions{Size: -1},
	})
	mut := server.NewMutator(srv, seq, server.MutatorOptions{
		WAL: wlog,
		Persist: func(_ context.Context, i *core.Index, s uint64) error {
			return persistSnapshot(snapPath, i, walMeta(ds, s), obs.DiscardLogger(), saveSec)
		},
	})
	return srv, mut
}

// mutate POSTs one mutation batch through the admin API and fails the test
// on anything but success.
func mutate(t *testing.T, srv *server.Server, body map[string]interface{}) map[string]interface{} {
	t.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/admin/edges", bytes.NewReader(js))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("mutation batch: %d: %s", rec.Code, rec.Body.String())
	}
	out := map[string]interface{}{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// edgeBody builds an /admin/edges body from typed edges.
func edgeBody(add, remove []graph.Edge, verts ...string) map[string]interface{} {
	toJSON := func(es []graph.Edge) []map[string]uint32 {
		out := make([]map[string]uint32, len(es))
		for i, e := range es {
			out[i] = map[string]uint32{"from": uint32(e.From), "to": uint32(e.To)}
		}
		return out
	}
	body := map[string]interface{}{}
	if len(add) > 0 {
		body["add_edges"] = toJSON(add)
	}
	if len(remove) > 0 {
		body["remove_edges"] = toJSON(remove)
	}
	if len(verts) > 0 {
		body["add_vertices"] = verts
	}
	return body
}

// absentEdges returns n edges not present in g, deterministically.
func absentEdges(t *testing.T, g *graph.Graph, n int, skip map[graph.Edge]bool) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	nv := g.NumVertices()
	for u := 0; u < nv && len(out) < n; u++ {
		for v := nv - 1; v >= 0 && len(out) < n; v-- {
			e := graph.Edge{From: graph.V(u), To: graph.V(v)}
			if u != v && !g.HasEdge(e.From, e.To) && !skip[e] {
				out = append(out, e)
			}
		}
	}
	if len(out) < n {
		t.Fatal("graph too dense for fixture")
	}
	return out
}

// TestWALRestartEquivalence is the tentpole's end-to-end proof: a daemon
// that accepts mutation batches, is killed without warning (no clean
// shutdown, no final compaction), and reboots from snapshot + WAL replay
// answers every query byte-identically — across all four algorithms — to a
// server whose hierarchy was fully rebuilt over the mutated graph. A
// mid-run compaction and a crash *between* compaction's snapshot persist
// and its WAL truncate are part of the scenario, because those are the
// windows the recovery design argues about.
func TestWALRestartEquivalence(t *testing.T) {
	ds := datagen.Generate(datagen.Options{
		Name: "walrestart", Entities: 600, Terms: 60, LeafTypes: 6, Seed: 17,
	})
	dir := t.TempDir()
	snapPath := dir + "/index.snap"
	walPath := dir + "/mutations.wal"
	logger := obs.DiscardLogger()

	// ---- First life: cold boot, three mutation batches, one compaction.
	regA := obs.NewRegistry()
	loadA, saveA := regA.Gauge("l", ""), regA.Gauge("s", "")
	idxA, wlogA, seqA := bootIndex(ds, snapPath, walPath, regA, logger, loadA, saveA)
	if seqA != 0 {
		t.Fatalf("cold boot covered seq %d, want 0", seqA)
	}
	if saveA.Value() == 0 {
		t.Fatal("cold boot did not persist a base snapshot")
	}
	srvA, mutA := walServer(t, ds, idxA, wlogA, seqA, snapPath, saveA)

	g0 := ds.Graph
	// Batch 1: add two edges. Batch 2: remove one existing edge, add a
	// vertex. Compact. Batch 3: add one more edge (lives only in the WAL).
	adds := absentEdges(t, g0, 3, nil)
	rm := g0.Edges()[len(g0.Edges())/3]
	label := topTerms(ds, 1)[0]

	mutate(t, srvA, edgeBody(adds[:2], nil))
	mutate(t, srvA, edgeBody(nil, []graph.Edge{rm}, label))
	if _, err := mutA.Compact(context.Background()); err != nil {
		t.Fatalf("compaction: %v", err)
	}
	res := mutate(t, srvA, edgeBody(adds[2:3], nil))
	if res["seq"] != float64(3) {
		t.Fatalf("post-compaction batch seq %v, want 3", res["seq"])
	}

	// Ground truth: the mutated graph assembled independently through
	// graph.Patch, and a hierarchy *fully rebuilt* over it.
	gFinal, err := graph.Patch(g0, nil, adds[:2], nil)
	if err == nil {
		gFinal, err = graph.Patch(gFinal, []graph.Label{g0.Dict().Lookup(label)}, nil, []graph.Edge{rm})
	}
	if err == nil {
		gFinal, err = graph.Patch(gFinal, nil, adds[2:3], nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := srvA.Index().Data().Digest(); got != gFinal.Digest() {
		t.Fatal("maintained graph diverged from the independently patched one")
	}

	// ---- kill -9: no compaction, no clean close. Everything the next
	// boot may use is already on disk (snapshot covering seq 2 + WAL).
	wlogA.Close()

	// ---- Second life: snapshot restore + WAL tail replay.
	regB := obs.NewRegistry()
	loadB, saveB := regB.Gauge("l", ""), regB.Gauge("s", "")
	idxB, wlogB, seqB := bootIndex(ds, snapPath, walPath, regB, logger, loadB, saveB)
	defer wlogB.Close()
	if loadB.Value() == 0 {
		t.Fatal("reboot did not restore from the snapshot")
	}
	if seqB != 3 {
		t.Fatalf("reboot covered seq %d, want 3", seqB)
	}
	if idxB.Data().Digest() != gFinal.Digest() {
		t.Fatal("replayed graph != independently patched graph")
	}
	srvB, _ := walServer(t, ds, idxB, wlogB, seqB, snapPath, saveB)

	// ---- Fresh full rebuild of the mutated graph (the reference).
	bopt := core.DefaultBuildOptions()
	base, err := core.Build(ds.Graph, ds.Ont, bopt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := base.Refreshed(gFinal)
	if err != nil {
		t.Fatal(err)
	}
	srvRef := server.New(ref, ds.Ont, server.Options{
		DMax: 3, BlockSize: 64, Cache: server.CacheOptions{Size: -1},
	})

	terms := topTerms(ds, 2)
	queries := []string{
		"q=" + url.QueryEscape(terms[0]) + "&k=5",
		"q=" + url.QueryEscape(terms[0]+","+terms[1]) + "&k=7",
		"q=" + url.QueryEscape(terms[1]) + "&k=3&direct=1",
	}
	for _, algo := range []string{"bkws", "bidir", "blinks", "rclique"} {
		for _, q := range queries {
			path := "/query?" + q + "&algo=" + algo
			get := func(s *server.Server) (int, string) {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				return rec.Code, rec.Body.String()
			}
			codeB, bodyB := get(srvB)
			codeR, bodyR := get(srvRef)
			if codeB != http.StatusOK || codeR != http.StatusOK {
				t.Fatalf("%s: status %d vs %d: %s", path, codeB, codeR, bodyB)
			}
			nb, nr := normalizeQueryJSON(t, []byte(bodyB)), normalizeQueryJSON(t, []byte(bodyR))
			if nb != nr {
				t.Errorf("%s: replayed and rebuilt servers disagree\nreplayed: %s\nrebuilt:  %s", path, nb, nr)
			}
		}
	}

	// ---- Crash window between compaction's persist and its truncate: the
	// snapshot now covers seq 3 (the reboot re-persisted the replayed
	// state) while the WAL still holds batch 3. A third boot must skip the
	// already-covered record, not double-apply it.
	wlogB.Close()
	regC := obs.NewRegistry()
	loadC, saveC := regC.Gauge("l", ""), regC.Gauge("s", "")
	idxC, wlogC, seqC := bootIndex(ds, snapPath, walPath, regC, logger, loadC, saveC)
	defer wlogC.Close()
	if loadC.Value() == 0 {
		t.Fatal("third boot did not restore from the snapshot")
	}
	if seqC != 3 {
		t.Fatalf("third boot covered seq %d, want 3", seqC)
	}
	if idxC.Data().Digest() != gFinal.Digest() {
		t.Fatal("skip-covered-records replay corrupted the graph")
	}

	// The snapshot on disk is a valid WAL-anchored snapshot of the base.
	if _, meta, err := snapshot.LoadFileWithBase(snapPath, ds.Ont, ds.Graph.Digest()); err != nil {
		t.Fatalf("final snapshot unreadable: %v", err)
	} else if meta.BaseDigest != ds.Graph.Digest() || meta.WALSeq != 3 {
		t.Fatalf("final snapshot meta: base %016x, wal_seq %d", meta.BaseDigest, meta.WALSeq)
	}
}
