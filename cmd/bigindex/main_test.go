package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bigindex/internal/snapshot"
)

// The subcommands are exercised directly (they print to stdout, which the
// test harness captures); success means no error and sane side effects.

func TestCmdGenStatsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "demo.big")
	if err := cmdGen([]string{"-preset", "demo", "-out", out}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("gen wrote nothing: %v", err)
	}
	if err := cmdStats([]string{"-in", out}); err != nil {
		t.Fatalf("stats -in: %v", err)
	}
	if err := cmdStats([]string{"-preset", "demo"}); err != nil {
		t.Fatalf("stats -preset: %v", err)
	}
}

func TestCmdBuildQuerySaveLoad(t *testing.T) {
	dir := t.TempDir()
	idxFile := filepath.Join(dir, "demo.snap")
	if err := cmdBuild([]string{"-preset", "demo", "-save", idxFile}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if fi, err := os.Stat(idxFile); err != nil || fi.Size() == 0 {
		t.Fatalf("index not saved: %v", err)
	}

	kw := frequentKeyword(t, "demo")
	if err := cmdQuery([]string{"-preset", "demo", "-q", kw, "-k", "3", "-dmax", "3"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if err := cmdQuery([]string{"-preset", "demo", "-q", kw, "-k", "3", "-dmax", "3", "-load", idxFile}); err != nil {
		t.Fatalf("query -load: %v", err)
	}
	if err := cmdQuery([]string{"-preset", "demo", "-q", kw, "-k", "3", "-direct"}); err != nil {
		t.Fatalf("query -direct: %v", err)
	}
	if err := cmdQuery([]string{"-preset", "demo", "-q", kw, "-algo", "bkws", "-k", "2", "-expand"}); err != nil {
		t.Fatalf("query bkws -expand: %v", err)
	}
}

// A snapshot of one preset must not serve another preset's query: the
// keywords are resolved through the -preset dictionary, so answers from a
// foreign index would be silently wrong.
func TestCmdQueryLoadRejectsOtherPreset(t *testing.T) {
	idxFile := filepath.Join(t.TempDir(), "demo.snap")
	if err := cmdBuild([]string{"-preset", "demo", "-save", idxFile}); err != nil {
		t.Fatalf("build: %v", err)
	}
	kw := frequentKeyword(t, "yago-s")
	err := cmdQuery([]string{"-preset", "yago-s", "-q", kw, "-k", "3", "-load", idxFile})
	if !errors.Is(err, snapshot.ErrSourceMismatch) {
		t.Fatalf("query -preset yago-s -load <demo index>: got %v, want ErrSourceMismatch", err)
	}
}

// frequentKeyword is the name of the preset's most frequent label, a
// keyword that always resolves.
func frequentKeyword(t *testing.T, preset string) string {
	t.Helper()
	ds, err := loadPreset(preset)
	if err != nil {
		t.Fatal(err)
	}
	var kw string
	best := 0
	for _, l := range ds.Graph.DistinctLabels() {
		if c := ds.Graph.LabelCount(l); c > best {
			best = c
			kw = ds.Graph.Dict().Name(l)
		}
	}
	return kw
}

func TestCmdErrors(t *testing.T) {
	if err := cmdGen([]string{"-preset", "nope", "-out", "/tmp/x"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if err := cmdGen([]string{"-preset", "demo"}); err == nil {
		t.Fatal("missing -out accepted")
	}
	if err := cmdQuery([]string{"-preset", "demo"}); err == nil {
		t.Fatal("missing -q accepted")
	}
	if err := cmdQuery([]string{"-preset", "demo", "-q", "zzzz-not-a-term"}); err == nil {
		t.Fatal("unresolvable keyword accepted")
	}
	if _, err := newAlgo("nope", 3); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// Every algorithm the usage line lists resolves, under its own name.
func TestNewAlgoNames(t *testing.T) {
	for _, name := range []string{"blinks", "bkws", "bidir", "rclique"} {
		a, err := newAlgo(name, 4)
		if err != nil {
			t.Fatalf("newAlgo(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("newAlgo(%q) resolved %q", name, a.Name())
		}
	}
}
