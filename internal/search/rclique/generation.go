package rclique

import (
	"context"

	"bigindex/internal/graph"
	"bigindex/internal/search"
)

// generation is r-clique's Step-5 answer generation: enumerate concrete
// tuples from the specialized per-keyword candidate sets of a generalized
// answer and verify every pairwise distance on the data graph. Vertex
// qualification (Def. 4.2 instantiated for this semantics) is "the new node
// is within R of every node already in the partial answer".
//
// Vertex-at-a-time mode recomputes a bounded traversal per qualification
// check; path-based mode memoizes one neighbor row per candidate vertex in
// a session-wide cache shared across partial answers and generalized
// answers (Sec. 4.3.3's duplicated-computation elimination).
type generation struct {
	g      *graph.Graph
	q      []graph.Label
	r      int
	opt    search.GenOptions
	cache  map[graph.V]nbrRow
	seen   map[string]bool
	count  int
	checks int
	stats  search.GenStats
}

// Stats implements search.StatsReporter. Path-based mode answers
// qualification from the shared memoized traversals (Def. 4.3 style);
// vertex-at-a-time mode re-traverses per check (Def. 4.2 style).
func (gen *generation) Stats() search.GenStats { return gen.stats }

func (gen *generation) exhausted() bool {
	return gen.opt.MaxChecks > 0 && gen.checks > gen.opt.MaxChecks
}

// Generate implements search.Generation.
func (gen *generation) Generate(rootCands []graph.V, cands [][]graph.V) []search.Match {
	return gen.GenerateCtx(context.Background(), rootCands, cands)
}

// GenerateCtx implements search.Generation with cooperative cancellation:
// the combinatorial tuple recursion checks the context at every step, so a
// cancelled session stops generating and returns the verified tuples built
// so far.
func (gen *generation) GenerateCtx(ctx context.Context, rootCands []graph.V, cands [][]graph.V) []search.Match {
	cancel := search.NewCanceller(ctx)
	if len(cands) != len(gen.q) {
		return nil
	}
	for _, c := range cands {
		if len(c) == 0 {
			return nil
		}
	}
	s := search.GetScratch(gen.g.NumVertices(), 0)
	defer search.PutScratch(s)

	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	if gen.opt.SpecOrder {
		order = bySizeOrder(cands)
	}

	var out []search.Match
	tuple := make([]graph.V, len(gen.q))
	earlyK := false
	var rec func(step int)
	rec = func(step int) {
		if gen.opt.K > 0 && gen.count >= gen.opt.K {
			earlyK = true
			return
		}
		if gen.exhausted() || cancel.Cancelled() {
			return
		}
		if step == len(order) {
			m := gen.makeMatch(s, tuple)
			if !gen.seen[m.Key()] {
				gen.seen[m.Key()] = true
				out = append(out, m)
				gen.count++
			}
			return
		}
		i := order[step]
		for _, v := range cands[i] {
			if cancel.Cancelled() {
				return
			}
			if gen.g.Label(v) != gen.q[i] {
				continue // Prop 4.1 filtering; defensive, normally pre-filtered
			}
			ok := true
			for _, j := range order[:step] {
				if !gen.within(s, tuple[j], v) {
					ok = false
					break
				}
			}
			if ok {
				tuple[i] = v
				rec(step + 1)
			}
		}
	}
	rec(0)
	if earlyK {
		gen.stats.EarlyKStops++
	}
	return out
}

func (gen *generation) within(s *search.Scratch, u, v graph.V) bool {
	gen.checks++
	_, ok := gen.distOf(s, u, v)
	if gen.opt.PathBased {
		gen.stats.PathChecks++
		if ok {
			gen.stats.PathQualified++
		}
	} else {
		gen.stats.VertexChecks++
		if ok {
			gen.stats.VertexQualified++
		}
	}
	return ok
}

// distOf returns the undirected distance between u and v when it is <= R,
// traversing on s.
func (gen *generation) distOf(s *search.Scratch, u, v graph.V) (int, bool) {
	if u == v {
		return 0, true
	}
	if gen.opt.PathBased {
		row, ok := gen.cache[u]
		if !ok {
			row = neighbors(s, gen.g, u, gen.r)
			gen.cache[u] = row
		}
		return row.dist(v)
	}
	// Vertex-at-a-time: fresh bounded traversal per check.
	s.Ball(gen.g, []graph.V{u}, gen.r, search.Both)
	return s.BallDist(v)
}

func (gen *generation) makeMatch(s *search.Scratch, tuple []graph.V) search.Match {
	nodes := append([]graph.V(nil), tuple...)
	score := 0
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if d, ok := gen.distOf(s, nodes[i], nodes[j]); ok {
				score += d
			} else {
				score += 2 * gen.r
			}
		}
	}
	return search.Match{Root: nodes[0], Nodes: nodes, Score: float64(score)}
}
