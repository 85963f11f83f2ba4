package core

import (
	"bigindex/internal/bisim"
	"bigindex/internal/graph"
)

// Delta is one batch of data-graph mutations: vertices to append (by
// dictionary label — new vocabulary requires a rebuild, matching the
// Rebase policy), edges to add and edges to remove.
type Delta struct {
	AddVertices []graph.Label
	AddEdges    []graph.Edge
	RemoveEdges []graph.Edge
}

// Empty reports whether the delta mutates nothing.
func (d Delta) Empty() bool {
	return len(d.AddVertices) == 0 && len(d.AddEdges) == 0 && len(d.RemoveEdges) == 0
}

// DeltaOptions is Applied's option set. It has no fields: maintenance
// has one path (absorb at layer 1, or re-summarize with the stored
// configurations), so there is nothing left to tune. The type survives so
// Applied's signature, and every caller written against it, stays stable.
type DeltaOptions struct{}

// DeltaReport describes how a delta was absorbed into the hierarchy.
type DeltaReport struct {
	// Absorbed is true when layer 1's partition provably survived the
	// delta unchanged, so every summary layer was reused pointer-identical.
	Absorbed bool
	// RecomputedLayers counts the summary layers rebuilt: 0 when absorbed,
	// otherwise every summary layer of the result.
	RecomputedLayers int
}

// Applied returns a new index equal to rebuilding the hierarchy over the
// mutated data graph with the stored configurations — the maintenance
// strategy of Sec. 3.2. The invariant, enforced by the equivalence tests,
// is
//
//	x.Applied(d) ≡ x.Refreshed(graph.Patch(x.Data(), d))
//
// layer for layer. It takes one shortcut: a pure edge-add delta whose
// every edge leaves layer 1's successor-block signatures intact
// (bisim.Absorbs) cannot change the partition, so the patched data graph
// is paired with the old summary layers as they are. Any other delta runs
// Refreshed over the patched graph. Either way the result passes the
// NewFromLayers structural validation and carries x's epoch + 1 (the
// atomic-swap and cache-invalidation contract).
//
// The receiver is never modified; like Refreshed, Applied is safe to run
// while x serves queries.
func (x *Index) Applied(d Delta, _ DeltaOptions) (*Index, *DeltaReport, error) {
	g0 := x.layers[0].Graph
	patched, err := graph.Patch(g0, d.AddVertices, d.AddEdges, d.RemoveEdges)
	if err != nil {
		return nil, nil, err
	}
	if len(d.AddVertices) == 0 && len(d.RemoveEdges) == 0 && len(x.layers) > 1 {
		// Layer 1's partition was computed over Gen(G⁰, C¹), which has
		// G⁰'s adjacency, so the data graph stands in for it.
		l1 := x.layers[1]
		if bisim.Absorbs(g0, &bisim.Result{Block: l1.Up, Members: l1.Down}, d.AddEdges) {
			layers := append([]*Layer{{Graph: patched}}, x.layers[1:]...)
			n, err := x.successor(layers)
			if err != nil {
				return nil, nil, err
			}
			return n, &DeltaReport{Absorbed: true}, nil
		}
	}
	n, err := x.Refreshed(patched)
	if err != nil {
		return nil, nil, err
	}
	return n, &DeltaReport{RecomputedLayers: n.NumLayers() - 1}, nil
}
