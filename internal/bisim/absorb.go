package bisim

import (
	"slices"

	"bigindex/internal/graph"
)

// Absorbs reports whether inserting edges into g provably leaves the
// partition r unchanged, so r (and its quotient graph) stays the maximal
// bisimulation of the patched graph without recomputation. It is the one
// shortcut of incremental minimum-bisimulation maintenance the paper cites
// (Deng et al. [7]): an update can only change the partition if it changes
// some vertex's successor-block signature.
//
// r must be the maximal bisimulation of a graph with g's adjacency; labels
// do not matter, since r's blocks already separate them. That lets the
// index check a generalized layer's partition against the data graph it
// relabels without materializing the relabeled copy.
//
// An edge (from, to) is absorbed when it already exists or when from
// already has a successor in to's block; its block-mates then do too,
// since bisimilar vertices see the same successor blocks. Checking each
// edge against the pre-batch graph is enough for the whole batch: no
// vertex's set of successor blocks changes, so r stays stable, and any
// coarser stable partition of the patched graph would be stable in g too,
// contradicting r's maximality. Endpoints outside g make it return false.
func Absorbs(g *graph.Graph, r *Result, edges []graph.Edge) bool {
	n := graph.V(g.NumVertices())
	for _, e := range edges {
		if e.From >= n || e.To >= n {
			return false
		}
		if !slices.ContainsFunc(g.Out(e.From), func(w graph.V) bool { return r.Block[w] == r.Block[e.To] }) {
			return false
		}
	}
	return true
}
