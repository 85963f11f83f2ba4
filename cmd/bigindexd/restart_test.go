package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"testing"

	"bigindex/internal/datagen"
	"bigindex/internal/obs"
	"bigindex/internal/server"
	"bigindex/internal/snapshot"
)

// topTerms returns the n most frequent label names — keywords guaranteed
// to resolve, deterministically picked.
func topTerms(ds *datagen.Dataset, n int) []string {
	type tc struct {
		name  string
		count int
	}
	var all []tc
	for _, l := range ds.Graph.DistinctLabels() {
		all = append(all, tc{ds.Graph.Dict().Name(l), ds.Graph.LabelCount(l)})
	}
	for i := 0; i < n && i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].count > all[i].count ||
				(all[j].count == all[i].count && all[j].name < all[i].name) {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	out := make([]string, 0, n)
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, all[i].name)
	}
	return out
}

// normalizeQueryJSON strips the only legitimately nondeterministic field
// (wall-clock elapsed) and re-marshals; everything else must match.
func normalizeQueryJSON(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad query JSON: %v\n%s", err, body)
	}
	delete(m, "elapsed")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRestartEquivalence is the end-to-end restart proof: a daemon booted
// from a snapshot answers every query byte-identically to the daemon that
// built the index — across all four algorithms. This is what licenses
// `-snapshot` boot as a drop-in replacement for a cold rebuild.
func TestRestartEquivalence(t *testing.T) {
	ds := datagen.Generate(datagen.Options{
		Name: "restart", Entities: 600, Terms: 60, LeafTypes: 6, Seed: 17,
	})
	snapPath := t.TempDir() + "/index.snap"
	logger := obs.DiscardLogger()

	// First boot: no snapshot exists, so bootIndex builds and persists.
	regA := obs.NewRegistry()
	loadA := regA.Gauge("l", "")
	saveA := regA.Gauge("s", "")
	idxA, _, _ := bootIndex(ds, snapPath, "", regA, logger, loadA, saveA)
	if saveA.Value() == 0 {
		t.Fatal("first boot did not persist a snapshot")
	}
	if loadA.Value() != 0 {
		t.Fatal("first boot claims to have loaded a snapshot that did not exist")
	}

	// Second boot: must restore from the snapshot, not rebuild.
	regB := obs.NewRegistry()
	loadB := regB.Gauge("l", "")
	saveB := regB.Gauge("s", "")
	idxB, _, _ := bootIndex(ds, snapPath, "", regB, logger, loadB, saveB)
	if loadB.Value() == 0 {
		t.Fatal("second boot did not load the snapshot")
	}
	if saveB.Value() != 0 {
		t.Fatal("second boot re-persisted after a successful load")
	}
	if idxB.NumLayers() != idxA.NumLayers() {
		t.Fatalf("restored layers %d, want %d", idxB.NumLayers(), idxA.NumLayers())
	}

	// Cache off so every response is a fresh evaluation (no "cached" flag
	// drift between the two servers).
	sopt := server.Options{DMax: 3, BlockSize: 64, Cache: server.CacheOptions{Size: -1}}
	srvA := server.New(idxA, ds.Ont, sopt)
	srvB := server.New(idxB, ds.Ont, sopt)

	terms := topTerms(ds, 2)
	if len(terms) < 2 {
		t.Fatal("fixture too small for a two-keyword query")
	}
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
			codeA, bodyA := get(srvA)
			codeB, bodyB := get(srvB)
			if codeA != http.StatusOK || codeB != http.StatusOK {
				t.Fatalf("%s: status %d vs %d: %s", path, codeA, codeB, bodyA)
			}
			na, nb := normalizeQueryJSON(t, []byte(bodyA)), normalizeQueryJSON(t, []byte(bodyB))
			if na != nb {
				t.Errorf("%s: built and restored servers disagree\nbuilt:    %s\nrestored: %s", path, na, nb)
			}
		}
	}

	// A corrupted snapshot must fall back to a rebuild, not crash or serve
	// garbage — and the rebuilt index must be re-persisted and loadable.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	regC := obs.NewRegistry()
	loadC := regC.Gauge("l", "")
	saveC := regC.Gauge("s", "")
	idxC, _, _ := bootIndex(ds, snapPath, "", regC, logger, loadC, saveC)
	if loadC.Value() != 0 {
		t.Fatal("corrupt snapshot was loaded")
	}
	if saveC.Value() == 0 {
		t.Fatal("fallback rebuild did not re-persist")
	}
	if _, _, err := snapshot.LoadFileFor(snapPath, ds.Ont, ds.Graph.Digest()); err != nil {
		t.Fatalf("re-persisted snapshot unreadable: %v", err)
	}
	if idxC.NumLayers() != idxA.NumLayers() {
		t.Fatalf("fallback rebuild layers %d, want %d", idxC.NumLayers(), idxA.NumLayers())
	}
}
