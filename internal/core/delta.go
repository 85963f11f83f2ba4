package core

import (
	"bigindex/internal/bisim"
	"bigindex/internal/graph"
)

// Delta is one batch of data-graph mutations: vertices to append (by
// dictionary label — new vocabulary requires a rebuild), edges to add and
// edges to remove.
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
// has one path (re-sign what the batch reaches, layer by layer), so there
// is nothing to tune. The type survives so Applied's signature, and every
// caller written against it, stays stable.
type DeltaOptions struct{}

// DeltaReport describes what a delta did to the hierarchy.
type DeltaReport struct {
	// Absorbed is true when every summary layer was reused
	// pointer-identical: the batch moved no vertex to another block at
	// layer 1, added no vertex, and so changed nothing above layer 0.
	Absorbed bool
	// RecomputedLayers counts the summary layers whose graph changed; a
	// layer re-summarized whole by the fallback always counts.
	RecomputedLayers int
	// FallbackLayers counts the summary layers re-summarized whole by
	// bisim.Compute because the batch reached a cycle there; every layer
	// above the first such layer is re-summarized whole too.
	FallbackLayers int
}

// Applied returns a new index equal to rebuilding the hierarchy over the
// mutated data graph with the stored configurations — the maintenance
// strategy of Sec. 3.2. The invariant, enforced by the equivalence tests,
// is
//
//	x.Applied(d) ≡ x.Refreshed(graph.Patch(x.Data(), d))
//
// layer for layer and byte for byte. It costs what the batch touches
// plus one write of each array the new index cannot share: graph.Patch
// splices layer 0's rows, copying the untouched ones in bulk, and each
// summary layer re-signs only the sources of changed edges and the new
// vertices, walking to predecessors while blocks change (bisim.Update).
// Past the walk a layer writes its Block and Down maps and its summary
// CSR once, straight from the signatures, and hands the change in its
// summary to the layer above. Where the walk reaches a cycle the layer and
// those above it are re-summarized whole. Either way the result passes the
// NewFromLayers structural validation, one more pass over each layer's
// maps, and carries x's epoch + 1 (the atomic-swap and cache-invalidation
// contract).
//
// The receiver is never modified; like Refreshed, Applied is safe to run
// while x serves queries.
func (x *Index) Applied(d Delta, _ DeltaOptions) (*Index, *DeltaReport, error) {
	g0 := x.layers[0].Graph
	patched, err := graph.Patch(g0, d.AddVertices, d.AddEdges, d.RemoveEdges)
	if err != nil {
		return nil, nil, err
	}
	// Patch only appends vertices: a nil Prev says so without an
	// identity map over every vertex.
	n0, n := g0.NumVertices(), patched.NumVertices()
	var ch bisim.Change
	for v := n0; v < n; v++ {
		ch.Touched = append(ch.Touched, graph.V(v))
	}
	for _, es := range [][]graph.Edge{d.AddEdges, d.RemoveEdges} {
		for _, e := range es {
			if int(e.From) < n {
				ch.Touched = append(ch.Touched, e.From)
			}
		}
	}
	return x.resummarized(patched, &ch)
}
