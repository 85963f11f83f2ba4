package graph

// Dir selects a traversal direction. Backward keyword search (Sec. 5.1)
// walks in-edges; answer verification and the neighbor index of r-clique
// walk out-edges or both.
type Dir int

const (
	// Forward follows out-edges.
	Forward Dir = iota
	// Backward follows in-edges.
	Backward
)

func (g *Graph) neighbors(v V, d Dir) []V {
	if d == Forward {
		return g.Out(v)
	}
	return g.In(v)
}

// BFSWithin performs a breadth-first traversal from src following direction
// d, visiting every vertex at distance <= radius. visit is called once per
// vertex (including src at distance 0); returning false stops the whole
// traversal early.
//
// radius < 0 means unbounded.
func (g *Graph) BFSWithin(src V, radius int, d Dir, visit func(v V, dist int) bool) {
	type item struct {
		v    V
		dist int
	}
	seen := map[V]bool{src: true}
	queue := []item{{src, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if !visit(cur.v, cur.dist) {
			return
		}
		if radius >= 0 && cur.dist == radius {
			continue
		}
		for _, w := range g.neighbors(cur.v, d) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, item{w, cur.dist + 1})
			}
		}
	}
}

// ReachableWithin returns the set of vertices reachable from src within
// radius hops in direction d, including src itself. The node-induced
// subgraph of this set is the sampling unit of the cost model (Sec. 3.2).
func (g *Graph) ReachableWithin(src V, radius int, d Dir) []V {
	var vs []V
	g.BFSWithin(src, radius, d, func(v V, _ int) bool {
		vs = append(vs, v)
		return true
	})
	return vs
}

// Dist returns the shortest-path distance from u to v following direction d,
// or -1 if v is unreachable within limit hops (limit < 0 means unbounded).
// Distances are hop counts; the paper's dist(u, v) (Secs. 2 and 5).
func (g *Graph) Dist(u, v V, limit int, d Dir) int {
	if u == v {
		return 0
	}
	found := -1
	g.BFSWithin(u, limit, d, func(w V, dist int) bool {
		if w == v {
			found = dist
			return false
		}
		return true
	})
	return found
}

// Reach reports whether v is reachable from u in direction d within limit
// hops (limit < 0 means unbounded). reach(u, v, G) of Prop 5.1.
func (g *Graph) Reach(u, v V, limit int, d Dir) bool {
	return g.Dist(u, v, limit, d) >= 0
}
