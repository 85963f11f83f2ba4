package server

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/url"
	"regexp"
	"strings"
	"testing"
)

// shellPin is the digest of TestShellDigestPinned: status and body of a
// fixed sequence of /query, /explain and /complete requests, Warm's count
// and error text, and the counter and histogram-count lines of the query,
// cache and paper-phase metric families afterwards.
const shellPin = "8583e40316d54ed4371e217d64d5f00d3b8a881532f80ba84fb287b7d4d2c0f1"

// pinnedFamilies are the metric families whose counters and histogram
// counts the shell pin covers.
var pinnedFamilies = []string{
	"bigindex_query_", "bigindex_qcache_", "bigindex_prop41_", "bigindex_topk_", "bigindex_gen_checks_",
}

// elapsedLine is the one wall-clock field of a /query body.
var elapsedLine = regexp.MustCompile(`(?m)^\s*"elapsed": "[^"]*",\n`)

// TestShellDigestPinned pins what the HTTP shell answers for well-formed
// and malformed requests, so a refactor of request parsing, caching or
// rendering shows any change byte for byte. Tracing is left out, since a
// traced response carries IDs and timings; TestMalformedParams covers the
// boolean spellings.
func TestShellDigestPinned(t *testing.T) {
	s, ds := testServer(t)
	if n := s.st().idx.NumLayers(); n < 2 {
		t.Fatalf("index has %d layers; the pin needs a summary layer", n)
	}
	terms := popularTerms(ds, 2)
	kw, kw2 := url.QueryEscape(terms[0]), url.QueryEscape(terms[1])

	paths := []string{"/query?q=" + kw}
	for _, algo := range []string{"blinks", "bkws", "bidir", "rclique"} {
		paths = append(paths, "/query?q="+kw+"&algo="+algo+"&k=5")
	}
	paths = append(paths,
		"/query?q="+kw+"&algo=bkws&layer=0",
		"/query?q="+kw+"&algo=bkws&layer=1",
		"/query?q="+kw+"&layer=0&k=5",
		"/query?q="+kw+"&direct=1&k=1",
		"/query?q="+kw+"&algo=bidir&direct=1",
		"/query?q="+kw+"&k=1",
		"/query?q="+kw+"&algo=bkws&k=5", // a cached repeat
		"/query?q="+kw+"&algo=bkws&k=5&nocache=1",
		"/query?q=term", // free text: resolves with a note
		"/query?q="+kw2+","+kw+"&algo=bkws",
		"/query",
		"/query?q=zzzznotaterm",
		"/query?q="+kw+"&algo=nonsense",
		"/query?q="+kw+"&k=abc",
		"/query?q="+kw+"&k=0",
		"/query?q="+kw+"&k=101",
		"/query?q="+kw+"&layer=99",
		"/query?q="+kw+"&layer=-1",
		"/query?q="+kw+"&timeout=abc",
		"/query?q="+kw+"&timeout=-5s",
		"/explain?q="+kw,
		"/explain?q="+kw+"&algo=bkws",
		"/explain",
		"/complete?prefix=term&limit=5",
		"/complete?prefix=term&limit=0",
	)

	h := sha256.New()
	for _, p := range paths {
		rec, _ := get(t, s, p)
		body := elapsedLine.ReplaceAllString(rec.Body.String(), "")
		fmt.Fprintf(h, "%s %d\n%s\n", p, rec.Code, body)
	}
	n, err := s.Warm(context.Background(), []string{
		"# workload", "", terms[1], terms[1] + " | bidir | 5", "zzzznotaterm",
		terms[0] + " | bkws | 101", terms[0] + " | nonsense",
	})
	fmt.Fprintf(h, "warm %d %v\n", n, err)

	rec, _ := get(t, s, "/metrics")
	writePinnedMetrics(h, rec.Body.String())
	if got := hex.EncodeToString(h.Sum(nil)); got != shellPin {
		t.Fatalf("shell digest = %s, want %s", got, shellPin)
	}
}

// writePinnedMetrics writes the counter lines and histogram _count lines
// of the pinned families, in exposition order.
func writePinnedMetrics(w io.Writer, exposition string) {
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") || !pinned(line) {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		switch {
		case types[name] == "counter":
		case strings.HasSuffix(name, "_count") && types[strings.TrimSuffix(name, "_count")] == "histogram":
		default:
			continue
		}
		fmt.Fprintln(w, line)
	}
}

func pinned(line string) bool {
	for _, p := range pinnedFamilies {
		if strings.HasPrefix(line, p) {
			return true
		}
	}
	return false
}
