package core

import (
	"context"
	"fmt"
	"strings"

	"bigindex/internal/cost"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
)

// Plan describes how a query would be evaluated: the query's Formula 4
// cost table and the layer it routes to under β. It is purely
// informational — Explain runs the cost model but no search.
type Plan struct {
	Layer int
	Beta  float64
	Costs cost.Table
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
	t := cost.NewTable(e.idx, q, e.opt.DegreeExponent)
	p := &Plan{Layer: t.Argmin(e.opt.Beta, 1-e.opt.Beta), Beta: e.opt.Beta, Costs: t}
	sp.SetAttr("layer", p.Layer)
	return p
}

// Render formats the plan for humans, resolving labels through dict.
func (p *Plan) Render(dict *graph.Dict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: evaluate at layer %d\n", p.Layer)
	for m, row := range p.Costs {
		marker := " "
		if m == p.Layer {
			marker = "*"
		}
		legal := ""
		if !row.Legal {
			legal = "  (illegal: keywords merge)"
		}
		names := make([]string, len(row.Gen))
		for i, l := range row.Gen {
			if n, ok := dict.NameOK(l); ok {
				names[i] = n
			} else {
				names[i] = fmt.Sprintf("#%d", l)
			}
		}
		fmt.Fprintf(&b, "%s L%d cost=%.3f  Q=%s%s\n", marker, m, p.Costs.Cost(m, p.Beta), strings.Join(names, ", "), legal)
	}
	return b.String()
}
