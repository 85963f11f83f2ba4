package core

import (
	"context"
	"fmt"
	"strings"

	"bigindex/internal/cost"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
)

// Plan describes how a query would be evaluated: the per-layer costs, the
// chosen layer, the generalized keywords, and their per-layer legality
// (Def. 4.1 Condition 1). It is purely informational — Explain runs the
// cost model but no search.
type Plan struct {
	Query      []graph.Label
	Layer      int
	LayerCosts []float64
	// Legal[m] is false when two query keywords merge at layer m.
	Legal []bool
	// Generalized[m] is Gen^m(Q).
	Generalized [][]graph.Label
}

// Explain computes the evaluation plan for q under the evaluator's options:
// the layer the cost model picks, as Eval and EvalLayerCtx(ctx, q, -1) do.
func (e *Evaluator) Explain(q []graph.Label) *Plan {
	return e.ExplainCtx(context.Background(), q)
}

// ExplainCtx is Explain under the context's span (one "Explain" span with
// the chosen layer as an attribute).
func (e *Evaluator) ExplainCtx(ctx context.Context, q []graph.Label) *Plan {
	sp := obs.SpanFromContext(ctx).StartChild("Explain")
	defer sp.End()
	p := e.explain(q)
	sp.SetAttr("layer", p.Layer)
	return p
}

func (e *Evaluator) explain(q []graph.Label) *Plan {
	p := &Plan{Query: append([]graph.Label(nil), q...)}
	p.Layer, p.LayerCosts = cost.OptimalLayerEx(e.idx, q, e.opt.Beta, e.opt.DegreeExponent)
	seq := e.idx.Configs()
	distinct := make(map[graph.Label]bool, len(q))
	for _, l := range q {
		distinct[l] = true
	}
	for m := 0; m < e.idx.NumLayers(); m++ {
		p.Generalized = append(p.Generalized, seq.GenQuery(q, m))
		p.Legal = append(p.Legal, seq.DistinctAtLayer(q, m) == len(distinct))
	}
	return p
}

// Render formats the plan for humans, resolving labels through dict.
func (p *Plan) Render(dict *graph.Dict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: evaluate at layer %d\n", p.Layer)
	for m := range p.Generalized {
		marker := " "
		if m == p.Layer {
			marker = "*"
		}
		legal := ""
		if !p.Legal[m] {
			legal = "  (illegal: keywords merge)"
		}
		costStr := ""
		if m < len(p.LayerCosts) {
			costStr = fmt.Sprintf(" cost=%.3f", p.LayerCosts[m])
		}
		names := make([]string, len(p.Generalized[m]))
		for i, l := range p.Generalized[m] {
			if n, ok := dict.NameOK(l); ok {
				names[i] = n
			} else {
				names[i] = fmt.Sprintf("#%d", l)
			}
		}
		fmt.Fprintf(&b, "%s L%d%s  Q=%s%s\n", marker, m, costStr, strings.Join(names, ", "), legal)
	}
	return b.String()
}
