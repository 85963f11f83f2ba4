package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strings"
	"testing"
)

// auditPin is the digest of TestCostAuditPinned: the /debug/costmodel
// window after a fixed query sequence (window and total, the bits of β̂
// and of the fitted coefficients, every calibration row) and the
// bigindex_costmodel_misroute_total counter of every algorithm.
const auditPin = "91ae8737dd15f5875725cc4992bc01ac646275a0c28d52753b56ce17daf58a34"

// TestCostAuditPinned sends a fixed sequence of routed and pinned-layer
// nocache queries and pins what the Formula 4 calibration audit made of
// them, bit for bit.
func TestCostAuditPinned(t *testing.T) {
	s, ds := robustServer(t, Options{Debug: DebugOptions{Endpoints: true}})
	layers := s.st().idx.NumLayers()
	if layers < 2 {
		t.Fatalf("index has %d layers; the pin needs a summary layer", layers)
	}
	terms := popularTerms(ds, 7)
	algos := []string{"blinks", "bkws", "bidir", "rclique"}
	for i := 0; i < 48; i++ {
		q := terms[i%len(terms)]
		if i%3 != 0 {
			q += "," + terms[(i*5+1)%len(terms)]
		}
		path := fmt.Sprintf("/query?q=%s&algo=%s&k=5&nocache=1", url.QueryEscape(q), algos[i%len(algos)])
		if i%5 == 4 {
			path += fmt.Sprintf("&layer=%d", (i/5)%layers)
		}
		if rec, _ := get(t, s, path); rec.Code != 200 {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
	}

	h := sha256.New()
	_, body := get(t, s, "/debug/costmodel")
	for _, k := range []string{"window", "total_samples", "suggested_beta", "fit_compress_coeff", "fit_support_coeff", "misroutes"} {
		v, ok := body[k].(float64)
		if !ok {
			t.Fatalf("/debug/costmodel has no numeric %q: %v", k, body)
		}
		fmt.Fprintf(h, "%s=%x\n", k, math.Float64bits(v))
	}
	rows, _ := body["layers"].([]interface{})
	for _, r := range rows {
		row := r.(map[string]interface{})
		fmt.Fprintf(h, "row %v/%v n=%v", row["algo"], row["layer"], row["count"])
		for _, k := range []string{"mean_predicted", "mean_observed", "mean_ratio"} {
			fmt.Fprintf(h, " %x", math.Float64bits(row[k].(float64)))
		}
		fmt.Fprintln(h)
	}
	mrec, _ := get(t, s, "/metrics")
	var misroutes []string
	for _, line := range strings.Split(mrec.Body.String(), "\n") {
		if strings.HasPrefix(line, "bigindex_costmodel_misroute_total{") {
			misroutes = append(misroutes, line)
		}
	}
	sort.Strings(misroutes)
	for _, line := range misroutes {
		fmt.Fprintln(h, line)
	}
	t.Logf("window %v, β̂ %v, misroutes %v", body["window"], body["suggested_beta"], misroutes)
	if len(misroutes) == 0 {
		t.Fatal("no query was counted as misrouted; the pin does not exercise the misroute check")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != auditPin {
		t.Fatalf("audit digest %s, want %s", got, auditPin)
	}
}
