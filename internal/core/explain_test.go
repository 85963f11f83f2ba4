package core

import (
	"math/rand"
	"strings"
	"testing"

	"bigindex/internal/search/bkws"
)

func TestExplainMatchesEval(t *testing.T) {
	ds := smallDataset(800)
	idx := buildIndex(t, ds)
	rng := rand.New(rand.NewSource(8))
	ev := NewEvaluator(idx, bkws.New(3), DefaultEvalOptions())
	for trial := 0; trial < 6; trial++ {
		q := pickQuery(rng, ds, 2, 3)
		if q == nil {
			t.Skip("no frequent labels")
		}
		plan := ev.Explain(q)
		_, bd, err := ev.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Layer != bd.Layer {
			t.Fatalf("Explain picked layer %d, Eval used %d", plan.Layer, bd.Layer)
		}
		if len(plan.Costs) != idx.NumLayers() {
			t.Fatalf("plan shape: %+v", plan)
		}
		if !plan.Costs[0].Legal {
			t.Fatal("layer 0 must always be legal")
		}
		out := plan.Render(ds.Graph.Dict())
		if !strings.Contains(out, "plan: evaluate at layer") {
			t.Fatalf("render: %s", out)
		}
		if !strings.Contains(out, "*") {
			t.Fatal("render should mark the chosen layer")
		}
	}

}
