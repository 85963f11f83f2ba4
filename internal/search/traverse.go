package search

import (
	"slices"

	"bigindex/internal/graph"
)

// MultiSourceDists runs one breadth-first traversal from all sources at once
// and returns vertex -> hop distance to the nearest source, bounded by limit
// (limit < 0 means unbounded). Direction Backward answers "how far is v from
// reaching a source" — the primitive behind backward keyword expansion and
// the path-based answer generation (one traversal per keyword instead of one
// per candidate root).
func MultiSourceDists(g *graph.Graph, sources []graph.V, limit int, d graph.Dir) map[graph.V]int {
	dist := make(map[graph.V]int, len(sources)*4)
	queue := make([]graph.V, 0, len(sources))
	for _, s := range sources {
		if _, ok := dist[s]; !ok {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		if limit >= 0 && dv == limit {
			continue
		}
		var next []graph.V
		if d == graph.Forward {
			next = g.Out(v)
		} else {
			next = g.In(v)
		}
		for _, w := range next {
			if _, ok := dist[w]; !ok {
				dist[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// UndirectedDists returns hop distances from src treating every edge as
// bidirectional, bounded by limit. r-clique's distance constraint uses
// undirected connectivity (Kargar & An treat the proximity of keyword nodes
// symmetrically).
func UndirectedDists(g *graph.Graph, src graph.V, limit int) map[graph.V]int {
	dist := map[graph.V]int{src: 0}
	queue := []graph.V{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		if limit >= 0 && dv == limit {
			continue
		}
		relax := func(w graph.V) {
			if _, ok := dist[w]; !ok {
				dist[w] = dv + 1
				queue = append(queue, w)
			}
		}
		for _, w := range g.Out(v) {
			relax(w)
		}
		for _, w := range g.In(v) {
			relax(w)
		}
	}
	return dist
}

// MinDistToLabels performs one bounded forward BFS from root and returns,
// for each of the requested labels, the minimum hop distance and the
// smallest-ID vertex realizing it. ok is false if some label is unreachable
// within limit. The traversal stops early once every label has been seen at
// its minimum distance (all vertices at the current level processed).
//
// The deterministic smallest-ID tie-break is what makes direct evaluation
// and index-backed regeneration produce byte-identical matches.
func MinDistToLabels(g *graph.Graph, root graph.V, labels []graph.Label, limit int) (dists []int, nodes []graph.V, ok bool) {
	s := GetScratch(g.NumVertices(), 0)
	defer PutScratch(s)
	dists, nodes, ok = s.MinDistToLabels(g, root, labels, limit)
	return slices.Clone(dists), slices.Clone(nodes), ok
}

// ShortestPath returns one shortest path from u to v (inclusive) in
// direction dir, or nil if unreachable within limit. Predecessors are chosen
// by smallest vertex ID for determinism.
func ShortestPath(g *graph.Graph, u, v graph.V, limit int, dir graph.Dir) []graph.V {
	if u == v {
		return []graph.V{u}
	}
	prev := map[graph.V]graph.V{u: u}
	queue := []graph.V{u}
	depth := map[graph.V]int{u: 0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if limit >= 0 && depth[cur] == limit {
			continue
		}
		var next []graph.V
		if dir == graph.Forward {
			next = g.Out(cur)
		} else {
			next = g.In(cur)
		}
		for _, w := range next {
			if _, ok := prev[w]; !ok {
				prev[w] = cur
				depth[w] = depth[cur] + 1
				if w == v {
					return assemblePath(prev, u, v)
				}
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// ShortestPathUndirected is ShortestPath over the undirected skeleton.
func ShortestPathUndirected(g *graph.Graph, u, v graph.V, limit int) []graph.V {
	if u == v {
		return []graph.V{u}
	}
	prev := map[graph.V]graph.V{u: u}
	depth := map[graph.V]int{u: 0}
	queue := []graph.V{u}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if limit >= 0 && depth[cur] == limit {
			continue
		}
		expand := func(w graph.V) bool {
			if _, ok := prev[w]; !ok {
				prev[w] = cur
				depth[w] = depth[cur] + 1
				if w == v {
					return true
				}
				queue = append(queue, w)
			}
			return false
		}
		for _, w := range g.Out(cur) {
			if expand(w) {
				return assemblePath(prev, u, v)
			}
		}
		for _, w := range g.In(cur) {
			if expand(w) {
				return assemblePath(prev, u, v)
			}
		}
	}
	return nil
}

func assemblePath(prev map[graph.V]graph.V, u, v graph.V) []graph.V {
	var rev []graph.V
	for cur := v; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == u {
			break
		}
	}
	path := make([]graph.V, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}
