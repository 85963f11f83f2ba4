package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"bigindex/internal/obs"
)

// writeWorkload captures a synthetic query log the way bigindexd would:
// one JSONL entry per query, keywords by name.
func writeWorkload(t *testing.T, entries []obs.QueryLogEntry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "qlog.jsonl")
	ql, err := obs.OpenQueryLog(obs.QueryLogOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		ql.Append(e)
	}
	if err := ql.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func demoEntry(kws []string, algo, outcome string, direct bool) obs.QueryLogEntry {
	return obs.QueryLogEntry{
		TS: time.Unix(1700000000, 0).UTC(), Keywords: kws, Algo: algo, K: 10,
		Direct: direct, Outcome: outcome,
		Cost: &obs.LedgerSnapshot{Expanded: 7, WorkUnits: 7},
	}
}

func TestRunReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the demo fixture")
	}
	// demo/term/0 and /1 are the two most frequent Zipf terms of the demo
	// preset, so every algorithm finds answers for them.
	path := writeWorkload(t, []obs.QueryLogEntry{
		demoEntry([]string{"demo/term/0", "demo/term/1"}, "blinks", "ok", false),
		demoEntry([]string{"demo/term/1", "demo/term/2"}, "blinks", "ok", false),
		demoEntry([]string{"demo/term/0", "demo/term/2"}, "bkws", "ok", false),
		demoEntry([]string{"demo/term/0"}, "blinks", "ok", true),        // direct: skipped
		demoEntry([]string{"demo/term/0"}, "blinks", "degraded", false), // non-ok: skipped
		demoEntry([]string{"no/such/term"}, "blinks", "ok", false),      // unresolvable: skipped
	})
	rep, err := RunReplay(path, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "replay" || len(rep.Rows) == 0 {
		t.Fatalf("report: %+v", rep)
	}
	// 3 replayable entries across two algorithms; every row carries a
	// positive predicted/observed ratio.
	algos := map[string]bool{}
	queries := 0
	for _, row := range rep.Rows {
		algos[row[0]] = true
		n, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("row query count %q: %v", row[2], err)
		}
		queries += n
		if ratio := row[5]; strings.HasPrefix(ratio, "-") || ratio == "0.000" {
			t.Fatalf("bad ratio in row %v", row)
		}
	}
	if queries != 3 || !algos["blinks"] || !algos["bkws"] {
		t.Fatalf("rows: %+v", rep.Rows)
	}
	joined := strings.Join(rep.Notes, "\n")
	if !strings.Contains(joined, "skipped: 1 direct, 1 non-ok, 1 unresolvable") {
		t.Fatalf("skip accounting missing: %q", joined)
	}
	if !strings.Contains(joined, "captured ledger (blinks): mean 7 work units") {
		t.Fatalf("captured-ledger note missing: %q", joined)
	}
}

func TestRunReplayErrors(t *testing.T) {
	if _, err := RunReplay("", "demo"); err == nil || !strings.Contains(err.Error(), "-workload") {
		t.Fatalf("want a usage error without a workload, got %v", err)
	}

	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunReplay(empty, "demo"); err == nil || !strings.Contains(err.Error(), "no replayable entries") {
		t.Fatalf("want an empty-workload error, got %v", err)
	}
}
