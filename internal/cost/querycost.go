package cost

import (
	"slices"

	"bigindex/internal/generalize"
	"bigindex/internal/graph"
)

// queryCostTerms returns Formula 4's two terms for evaluating q at a layer
// whose summary graph is layerG: the compression ratio and the relative
// keyword support (see Table.Cost).
//
// The compression ratio has an optional density correction for
// distance-based semantics: summarization *densifies* graphs (supernodes
// inherit the union of their members' edges), and the work of a bounded
// traversal grows like branching^depth, so a summary 0.7x the size but
// 1.6x as dense is a net loss for an R-hop search. With degreeExp = R the
// ratio is multiplied by (b_layer/b_data)^R, b being graph.Branching;
// degreeExp = 0 is the paper's formula. (Extension documented in
// DESIGN.md.)
func queryCostTerms(degreeExp int, data, layerG *graph.Graph, q, qGen []graph.Label) (compress, supRatio float64) {
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

// Row is one layer's row of a query's cost table: the query generalized to
// the layer and the two terms of Formula 4 there.
type Row struct {
	Gen      []graph.Label // Gen^m(Q)
	Compress float64       // (density-corrected) compression ratio
	Sup      float64       // relative keyword support
	// Legal is Def. 4.1 Condition 1: Gen^m keeps the query keywords
	// distinct. Layer 0 is always legal.
	Legal bool
}

// Table is Formula 4 for one query, row m for index layer m. It is built
// once per query; routing, the calibration audit's misroute check and
// query plans all read it.
type Table []Row

// NewTable builds the cost table of q over idx with the density correction
// of exponent degreeExp (0 = the paper's formula).
func NewTable(idx LayerGraphs, q []graph.Label, degreeExp int) Table {
	data := idx.LayerGraph(0)
	seq := idx.Configs()
	t := make(Table, idx.NumLayers())
	n := countDistinct(q)
	for m := range t {
		gen := seq.GenQuery(q, m)
		c, s := queryCostTerms(degreeExp, data, idx.LayerGraph(m), q, gen)
		t[m] = Row{Gen: gen, Compress: c, Sup: s, Legal: countDistinct(gen) == n}
	}
	return t
}

// Cost is cost_q(m) of Formula 4 under β:
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
func (t Table) Cost(m int, beta float64) float64 {
	return beta*t[m].Compress + (1-beta)*t[m].Sup
}

// Argmin returns the legal layer minimizing a·compress + b·sup, the lowest
// layer winning ties. At (β, 1−β) it is Def. 4.1's optimal layer; at the
// calibration's fitted coefficients it is where the refit model would
// route. Layer 0 is always legal, so a valid layer always exists.
func (t Table) Argmin(a, b float64) int {
	best, bestCost := 0, 0.0
	have := false
	for m := range t {
		if !t[m].Legal {
			continue
		}
		if c := a*t[m].Compress + b*t[m].Sup; !have || c < bestCost {
			best, bestCost, have = m, c, true
		}
	}
	return best
}

// OptimalLayerEx implements Def. 4.1 under Formula 4 with the density
// correction of exponent degreeExp: the legal layer of least cost_q, and
// cost_q of every layer (Fig. 19 plots them).
func OptimalLayerEx(idx LayerGraphs, q []graph.Label, beta float64, degreeExp int) (best int, costs []float64) {
	t := NewTable(idx, q, degreeExp)
	costs = make([]float64, len(t))
	for m := range t {
		costs[m] = t.Cost(m, beta)
	}
	return t.Argmin(beta, 1-beta), costs
}

// countDistinct counts the distinct labels of ls. Queries are a handful of
// keywords, so a quadratic scan beats building a set.
func countDistinct(ls []graph.Label) int {
	n := 0
	for i, l := range ls {
		if !slices.Contains(ls[:i], l) {
			n++
		}
	}
	return n
}
