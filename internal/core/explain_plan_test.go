package core

import (
	"math"
	"math/rand"
	"testing"

	"bigindex/internal/cost"
	"bigindex/internal/datagen"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search/bkws"
)

// TestExplainLayerCosts pins the plan's per-layer costs against the cost
// model they are supposed to expose: they must equal a direct
// OptimalLayerEx call under the same β / degree exponent, layer 0 must cost
// exactly 1 (Formula 4 is a ratio against the data graph).
func TestExplainLayerCosts(t *testing.T) {
	ds := smallDataset(900)
	idx := buildIndex(t, ds)
	rng := rand.New(rand.NewSource(17))
	q := pickQuery(rng, ds, 2, 3)
	if q == nil {
		t.Skip("no frequent labels")
	}

	cases := []struct {
		name string
		mut  func(*EvalOptions)
	}{
		{name: "default (degreeExp unset)", mut: func(o *EvalOptions) {}},
		{name: "degreeExp=3", mut: func(o *EvalOptions) { o.DegreeExponent = 3 }},
		{name: "beta=0.9", mut: func(o *EvalOptions) { o.Beta = 0.9 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultEvalOptions()
			tc.mut(&opt)
			ev := NewEvaluator(idx, bkws.New(3), opt)
			p := ev.Explain(q)

			wantLayer, wantCosts := cost.OptimalLayerEx(idx, q, opt.Beta, opt.DegreeExponent)
			if p.Layer != wantLayer {
				t.Fatalf("plan layer %d, cost model says %d", p.Layer, wantLayer)
			}
			if len(p.Costs) != idx.NumLayers() {
				t.Fatalf("cost table length %d, want %d", len(p.Costs), idx.NumLayers())
			}
			for m := range p.Costs {
				if c := p.Costs.Cost(m, p.Beta); math.Abs(c-wantCosts[m]) > 1e-12 {
					t.Fatalf("cost of layer %d = %v, cost model says %v", m, c, wantCosts[m])
				}
			}
			// Layer 0 compares the data graph against itself: both Formula 4
			// terms are 1 regardless of β or the density correction.
			if c := p.Costs.Cost(0, p.Beta); math.Abs(c-1) > 1e-12 {
				t.Fatalf("layer-0 cost = %v, want 1", c)
			}
		})
	}

	// The degree exponent must actually change the vector somewhere above
	// layer 0 — otherwise the option is dead and the table above proves
	// nothing.
	plain := NewEvaluator(idx, bkws.New(3), DefaultEvalOptions()).Explain(q)
	dense := DefaultEvalOptions()
	dense.DegreeExponent = 3
	corrected := NewEvaluator(idx, bkws.New(3), dense).Explain(q)
	changed := false
	for m := 1; m < len(plain.Costs); m++ {
		if math.Abs(plain.Costs.Cost(m, plain.Beta)-corrected.Costs.Cost(m, corrected.Beta)) > 1e-12 {
			changed = true
		}
	}
	if !changed && idx.NumLayers() > 1 {
		t.Fatal("degree exponent had no effect on any summary layer")
	}
}

// TestExplainSingleLayerIndex covers the degenerate index with no summary
// layers: the plan must still be well formed and pinned to layer 0.
func TestExplainSingleLayerIndex(t *testing.T) {
	ds := smallDataset(901)
	opt := DefaultBuildOptions()
	opt.MaxLayers = -1 // below the first summary layer: data graph only
	opt.Search.SampleCount = 40
	opt.Search.SampleRadius = 2
	idx, err := Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumLayers() != 1 {
		t.Fatalf("expected a single-layer index, got %d layers", idx.NumLayers())
	}
	rng := rand.New(rand.NewSource(23))
	q := pickQuery(rng, ds, 2, 3)
	if q == nil {
		t.Skip("no frequent labels")
	}
	p := NewEvaluator(idx, bkws.New(3), DefaultEvalOptions()).Explain(q)
	if p.Layer != 0 {
		t.Fatalf("single-layer plan picked layer %d", p.Layer)
	}
	if len(p.Costs) != 1 || math.Abs(p.Costs.Cost(0, p.Beta)-1) > 1e-12 || !p.Costs[0].Legal {
		t.Fatalf("single-layer plan: %+v", p)
	}
}

// TestLedgerMonotoneInGraphSize evaluates the same (by name) frequent-term
// query against two generations of the same synthetic dataset, 4× apart in
// entity count, and checks the ledger's work units grow with the graph.
// Layer 0 is forced so the router cannot hide the larger graph behind a
// summary layer.
func TestLedgerMonotoneInGraphSize(t *testing.T) {
	gen := func(entities int) *datagen.Dataset {
		return datagen.Generate(datagen.Options{
			Name:          "mono",
			Entities:      entities,
			AvgOut:        2,
			Terms:         60,
			LeafTypes:     8,
			TypeBranching: 3,
			TypeHeight:    3,
			Relations:     16,
			Seed:          4242,
		})
	}
	small := gen(400)
	large := gen(1600)

	work := func(ds *datagen.Dataset, q []graph.Label) int64 {
		t.Helper()
		idx := buildIndex(t, ds)
		ev := NewEvaluator(idx, bkws.New(3), DefaultEvalOptions())
		led := obs.NewLedger()
		ctx := obs.ContextWithLedger(t.Context(), led)
		if _, _, err := ev.EvalLayerCtx(ctx, q, 0); err != nil {
			t.Fatal(err)
		}
		return led.WorkUnits()
	}

	// Zipf term 0 is the most frequent label in every generation; the name
	// survives regeneration even though the label values may not.
	resolve := func(ds *datagen.Dataset) []graph.Label {
		t.Helper()
		q := make([]graph.Label, 2)
		for i, name := range []string{"mono/term/0", "mono/term/1"} {
			l := ds.Graph.Dict().Lookup(name)
			if l == graph.NoLabel {
				t.Fatalf("%s missing from dataset", name)
			}
			q[i] = l
		}
		return q
	}

	ws := work(small, resolve(small))
	wl := work(large, resolve(large))
	if ws <= 0 || wl <= 0 {
		t.Fatalf("ledger recorded no work: small=%d large=%d", ws, wl)
	}
	if ws >= wl {
		t.Fatalf("work units not monotone in graph size: small=%d large=%d", ws, wl)
	}
}
