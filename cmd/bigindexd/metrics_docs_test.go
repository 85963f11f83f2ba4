package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"bigindex/internal/datagen"
	"bigindex/internal/obs"
	"bigindex/internal/server"
	"bigindex/internal/shardrpc"
)

// TestDocumentedMetricsExist is the docs–metrics lint, both ways. Every
// full bigindex_* name written in README.md or DESIGN.md must be exposed,
// as a "# TYPE" line, by the /metrics of a daemon wired the way main wires
// it (snapshot and build gauges through bootIndex, runtime metrics, the
// mutation service over a WAL, the shard RPC client's metrics); and every
// bigindex_* name so exposed must be documented, in full or under a
// documented prefix. A name ending in "_" is a prefix
// ("bigindex_qcache_{hits,misses}_total" documents bigindex_qcache_*).
// Shard-server mode (-shard-serve) registers no metrics of its own, so
// this wiring exposes every metric the daemon has.
func TestDocumentedMetricsExist(t *testing.T) {
	ds := datagen.Generate(datagen.Options{
		Name: "metrics", Entities: 600, Terms: 60, LeafTypes: 6, Seed: 17,
	})
	dir := t.TempDir()
	logger := obs.DiscardLogger()
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	load, save := snapshotGauges(reg)
	idx, wlog, seq := bootIndex(ds, filepath.Join(dir, "index.snap"), filepath.Join(dir, "wal"),
		reg, logger, load, save)
	defer wlog.Close()
	srv := server.New(idx, ds.Ont, server.Options{Metrics: reg, Logger: logger})
	server.NewMutator(srv, seq, server.MutatorOptions{WAL: wlog, Logger: logger})
	shardrpc.NewMetrics(reg)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	exposed := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			exposed[f[2]] = true
		}
	}

	name := regexp.MustCompile(`bigindex_[a-z0-9_]+`)
	documented := map[string]bool{}
	var prefixes, missing []string
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range name.FindAllString(string(text), -1) {
			if strings.HasSuffix(m, "_") {
				prefixes = append(prefixes, m)
				continue
			}
			if !exposed[m] && !documented[m] {
				missing = append(missing, doc+": "+m)
			}
			documented[m] = true
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("documented metrics the daemon does not expose:\n  %s", strings.Join(missing, "\n  "))
	}

	var undocumented []string
	for m := range exposed {
		if !strings.HasPrefix(m, "bigindex_") || documented[m] ||
			slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(m, p) }) {
			continue
		}
		undocumented = append(undocumented, m)
	}
	sort.Strings(undocumented)
	if len(undocumented) > 0 {
		t.Errorf("exposed metrics neither README.md nor DESIGN.md names:\n  %s", strings.Join(undocumented, "\n  "))
	}
}
