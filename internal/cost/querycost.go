package cost

import (
	"bigindex/internal/generalize"
	"bigindex/internal/graph"
)

// QueryCost evaluates the query-layer cost model (Formula 4, Sec. 4.1) for
// evaluating query q at a layer whose summary graph is layerG:
//
//	cost_q(m) = β·(|χ^m(G)| / |G|)
//	          + (1−β)·(Σ sup(Gen^m(q_i), G^m) / Σ sup(q_i, G))
//
// The first term is the compression ratio of the summary graph at layer m —
// the smaller the summary, the cheaper the search. The second term is the
// relative support of the generalized keywords — the higher their support
// at layer m, the more candidates must be specialized and filtered back to
// layer 0.
//
// Note on fidelity: the TKDE text prints the first term as
// β(1 − |χ^m|/|G|), but its own prose ("the first term is the compression
// ratio of the summary graph") and the reported behaviour (higher layers
// are frequently optimal, Fig. 19) require the ratio itself — with the
// printed sign, m = 0 would trivially minimize the formula for every query.
// We implement the prose semantics.
func QueryCost(beta float64, data, layerG *graph.Graph, q, qGen []graph.Label) float64 {
	return QueryCostEx(beta, 0, data, layerG, q, qGen)
}

// QueryCostEx extends Formula 4 with an optional density correction for
// distance-based semantics: summarization *densifies* graphs (supernodes
// inherit the union of their members' edges), and the work of a bounded
// traversal grows like avgDegree^depth, so a summary 0.7x the size but 1.6x
// the density is a net loss for an R-hop search. With degreeExp = R the
// first term becomes sizeRatio × (d_layer/d_data)^R; degreeExp = 0 is the
// paper's formula. (Extension documented in DESIGN.md.)
func QueryCostEx(beta float64, degreeExp int, data, layerG *graph.Graph, q, qGen []graph.Label) float64 {
	compress, supRatio := QueryCostTerms(degreeExp, data, layerG, q, qGen)
	return beta*compress + (1-beta)*supRatio
}

// QueryCostTerms returns Formula 4's two components separately — the
// (density-corrected) compression ratio and the relative keyword support —
// so the calibration audit can refit β against observed work without
// recomputing supports per candidate β.
func QueryCostTerms(degreeExp int, data, layerG *graph.Graph, q, qGen []graph.Label) (compress, supRatio float64) {
	compress = 1.0
	if data.Size() > 0 {
		compress = float64(layerG.Size()) / float64(data.Size())
	}
	if degreeExp > 0 && data.NumVertices() > 0 && layerG.NumVertices() > 0 {
		b0 := data.Branching()
		bm := layerG.Branching()
		if b0 > 0 {
			growth := bm / b0
			for i := 0; i < degreeExp; i++ {
				compress *= growth
			}
		}
	}

	var supGen, supBase float64
	for i := range q {
		supBase += data.Support(q[i])
		supGen += layerG.Support(qGen[i])
	}
	supRatio = 1.0
	if supBase > 0 {
		supRatio = supGen / supBase
	}
	return compress, supRatio
}

// LayerGraphs abstracts the per-layer summary graphs of a BiG-index for
// layer selection without importing the core package (which depends on
// cost).
type LayerGraphs interface {
	// NumLayers reports h+1: the data graph plus h summary layers.
	NumLayers() int
	// LayerGraph returns the graph at layer m (0 = data graph).
	LayerGraph(m int) *graph.Graph
	// Configs returns the configuration sequence [C¹, …, Cʰ].
	Configs() generalize.Sequence
}

// OptimalLayer implements Def. 4.1: among the layers m where generalization
// keeps the |Q| keywords distinct (Condition 1), return the one minimizing
// cost_q (Condition 2). Layer 0 is always legal, so a valid layer always
// exists. The per-layer costs are returned for diagnostics (Fig. 19 uses
// them).
func OptimalLayer(idx LayerGraphs, q []graph.Label, beta float64) (best int, costs []float64) {
	return OptimalLayerEx(idx, q, beta, 0)
}

// OptimalLayerEx is OptimalLayer with the density correction of QueryCostEx.
func OptimalLayerEx(idx LayerGraphs, q []graph.Label, beta float64, degreeExp int) (best int, costs []float64) {
	data := idx.LayerGraph(0)
	seq := idx.Configs()
	costs = make([]float64, idx.NumLayers())
	best = 0
	bestCost := 0.0
	haveBest := false
	nDistinct := len(distinct(q))
	for m := 0; m < idx.NumLayers(); m++ {
		qGen := seq.GenQuery(q, m)
		costs[m] = QueryCostEx(beta, degreeExp, data, idx.LayerGraph(m), q, qGen)
		if seq.DistinctAtLayer(q, m) != nDistinct {
			// Condition 1 violated: two keywords merged at this layer.
			continue
		}
		if !haveBest || costs[m] < bestCost {
			best, bestCost, haveBest = m, costs[m], true
		}
	}
	return best, costs
}

func distinct(q []graph.Label) []graph.Label {
	seen := make(map[graph.Label]bool, len(q))
	var out []graph.Label
	for _, l := range q {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}
