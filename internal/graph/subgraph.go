package graph

import "slices"

// InducedSubgraph returns the node-induced subgraph of vs: its vertices are
// vs (deduplicated) and its edges are exactly the edges of g between them.
// The second return value maps original vertex IDs to subgraph IDs.
//
// This is the sampling unit of the compression estimator (Sec. 3.2): sample
// graphs are node-induced subgraphs of the radius-r reachable set of a
// random vertex.
func (g *Graph) InducedSubgraph(vs []V) (*Graph, map[V]V) {
	vs = append([]V(nil), vs...)
	slices.Sort(vs)
	vs = slices.Compact(vs)

	remap := make(map[V]V, len(vs))
	b := NewBuilder(g.dict)
	for i, v := range vs {
		remap[v] = V(i)
		b.AddVertexLabel(g.Label(v))
	}
	for _, v := range vs {
		for _, w := range g.Out(v) {
			if nw, ok := remap[w]; ok {
				b.AddEdge(remap[v], nw)
			}
		}
	}
	return b.Build(), remap
}
