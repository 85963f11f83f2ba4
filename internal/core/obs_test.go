package core

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math/rand"
	"strings"
	"testing"

	"bigindex/internal/obs"
	"bigindex/internal/search/blinks"
)

// TestEvalCtxSpanTree checks that hierarchical evaluation renders the
// Breakdown phases as a nested span tree: Select, Search, Specialize (with
// per-layer Spec children showing the Prop 4.1 pruning), Generate.
func TestEvalCtxSpanTree(t *testing.T) {
	ds := smallDataset(301)
	idx := buildIndex(t, ds)
	ev := NewEvaluator(idx, blinks.New(blinks.Options{DMax: 3}), DefaultEvalOptions())

	rng := rand.New(rand.NewSource(7))
	q := pickQuery(rng, ds, 2, 3)
	if q == nil {
		t.Skip("no query available")
	}

	tr := obs.NewTrace("eval-test")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	_, bd, err := ev.EvalLayerCtx(ctx, q, -1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Root().End()

	js, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var root obs.SpanJSON
	if err := json.Unmarshal(js, &root); err != nil {
		t.Fatal(err)
	}
	phases := map[string]obs.SpanJSON{}
	for _, c := range root.Children {
		phases[c.Name] = c
	}
	for _, want := range []string{"Select", "Search"} {
		if _, ok := phases[want]; !ok {
			t.Fatalf("span %q missing; got %v", want, names(root.Children))
		}
	}
	if bd.Layer > 0 {
		for _, want := range []string{"Specialize", "Generate"} {
			if _, ok := phases[want]; !ok {
				t.Fatalf("span %q missing at layer %d; got %v", want, bd.Layer, names(root.Children))
			}
		}
		spec := phases["Specialize"]
		if len(spec.Children) == 0 {
			t.Fatal("Specialize has no per-layer Spec children")
		}
		for _, c := range spec.Children {
			if !strings.HasPrefix(c.Name, "Spec/L") {
				t.Fatalf("unexpected Specialize child %q", c.Name)
			}
			if _, ok := c.Attrs["in"]; !ok {
				t.Fatalf("Spec child missing in/out pruning attrs: %+v", c)
			}
		}
	}
	if phases["Select"].Attrs["layer"] != float64(bd.Layer) {
		t.Fatalf("Select layer attr %v != breakdown layer %d", phases["Select"].Attrs["layer"], bd.Layer)
	}
	// Breakdown timings are span-derived and must be populated.
	if bd.Select <= 0 || bd.Search <= 0 {
		t.Fatalf("span-derived breakdown timings empty: %+v", bd)
	}
}

// TestEvalWithoutContextStillTimes guards the detached-trace path: plain
// Eval (bench, CLI) must keep producing a populated Breakdown.
func TestEvalWithoutContextStillTimes(t *testing.T) {
	ds := smallDataset(302)
	idx := buildIndex(t, ds)
	ev := NewEvaluator(idx, blinks.New(blinks.Options{DMax: 3}), DefaultEvalOptions())
	rng := rand.New(rand.NewSource(9))
	q := pickQuery(rng, ds, 2, 3)
	if q == nil {
		t.Skip("no query available")
	}
	_, bd, err := ev.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Select <= 0 || bd.Search <= 0 {
		t.Fatalf("breakdown not timed without a context span: %+v", bd)
	}
}

// TestBuildObservability checks the build-path gauges and the structured
// build log.
func TestBuildObservability(t *testing.T) {
	ds := smallDataset(303)
	var logBuf bytes.Buffer
	opt := DefaultBuildOptions()
	opt.Search.SampleCount = 40
	opt.Search.SampleRadius = 2
	opt.Obs = obs.NewRegistry()
	opt.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	idx, err := Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}

	var expo strings.Builder
	opt.Obs.WritePrometheus(&expo)
	out := expo.String()
	for _, want := range []string{
		`bigindex_build_phase_seconds{layer="1",phase="bisim"}`,
		`bigindex_build_phase_seconds{layer="1",phase="gen"}`,
		`bigindex_build_phase_seconds{layer="1",phase="config"}`,
		`bigindex_build_layer_vertices{layer="1"}`,
		`bigindex_build_config_rules{layer="1"}`,
		`bigindex_build_config_samples{layer="1"}`,
		"bigindex_build_layers",
		"bigindex_build_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("build metrics missing %q:\n%s", want, out)
		}
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected per-layer + summary log lines, got %d", len(lines))
	}
	var summary map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatal(err)
	}
	if summary["msg"] != "index built" || summary["layers"] != float64(idx.NumLayers()-1) {
		t.Fatalf("bad build summary log: %v", summary)
	}
}

// TestBreakdownPaperPhaseCounters pins the layer above G⁰ and checks the
// Breakdown's paper-phase counters: Prop 4.1 candidate accounting, the
// per-step specialization fan-out, and the Def 4.2/4.3 qualification
// counts from the generation session.
func TestBreakdownPaperPhaseCounters(t *testing.T) {
	ds := smallDataset(304)
	idx := buildIndex(t, ds)
	if idx.NumLayers() < 2 {
		t.Skip("single-layer index")
	}
	ev := NewEvaluator(idx, blinks.New(blinks.Options{DMax: 3}), DefaultEvalOptions())
	rng := rand.New(rand.NewSource(11))

	var bd *Breakdown
	var finals int
	for try := 0; try < 20; try++ {
		q := pickQuery(rng, ds, 2, 3)
		if q == nil {
			t.Skip("no query available")
		}
		ms, b, err := ev.EvalLayerCtx(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if b.GenAnswers > 0 {
			bd, finals = b, len(ms)
			break
		}
	}
	if bd == nil {
		t.Skip("no query produced generalized answers")
	}

	if bd.Prop41Checked <= 0 {
		t.Fatalf("Prop41Checked = %d, want > 0 (keyword specialization ran)", bd.Prop41Checked)
	}
	if bd.Prop41Filtered < 0 || bd.Prop41Filtered > bd.Prop41Checked {
		t.Fatalf("Prop41Filtered = %d out of range [0, %d]", bd.Prop41Filtered, bd.Prop41Checked)
	}
	if len(bd.SpecFanout) == 0 {
		t.Fatal("SpecFanout empty: no specialization steps recorded")
	}
	for _, f := range bd.SpecFanout {
		if f < 0 {
			t.Fatalf("negative fan-out %d", f)
		}
	}
	g := bd.Gen
	if g.VertexChecks < g.VertexQualified || g.PathChecks < g.PathQualified {
		t.Fatalf("qualified exceeds checked: %+v", g)
	}
	if g.VertexChecks == 0 && g.PathChecks == 0 && finals > 0 {
		t.Fatalf("finals produced with zero Def 4.2/4.3 checks: %+v", bd)
	}
}

func names(spans []obs.SpanJSON) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}
