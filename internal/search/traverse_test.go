package search

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"bigindex/internal/graph"
)

func chainGraph(n int) *graph.Graph {
	b := graph.NewBuilder(nil)
	l := b.Dict().Intern("x")
	for i := 0; i < n; i++ {
		b.AddVertexLabel(l)
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.V(i), graph.V(i+1))
	}
	return b.Build()
}

func randomGraph(rng *rand.Rand, n, e, labels int) *graph.Graph {
	b := graph.NewBuilder(nil)
	ls := make([]graph.Label, labels)
	for i := range ls {
		ls[i] = b.Dict().Intern(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		b.AddVertexLabel(ls[rng.Intn(labels)])
	}
	for i := 0; i < e; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	return b.Build()
}

func TestMultiSourceDistsChain(t *testing.T) {
	g := chainGraph(10)
	// Backward from vertex 9: dist[v] = 9 - v.
	dm := MultiSourceDists(g, []graph.V{9}, -1, graph.Backward)
	for v := 0; v < 10; v++ {
		if dm[graph.V(v)] != 9-v {
			t.Fatalf("dist[%d] = %d", v, dm[graph.V(v)])
		}
	}
	// Bounded.
	dm = MultiSourceDists(g, []graph.V{9}, 3, graph.Backward)
	if len(dm) != 4 {
		t.Fatalf("bounded map size %d, want 4", len(dm))
	}
	// Multi-source takes the minimum.
	dm = MultiSourceDists(g, []graph.V{3, 7}, -1, graph.Backward)
	if dm[2] != 1 || dm[5] != 2 || dm[0] != 3 {
		t.Fatalf("multi-source dists wrong: %v", dm)
	}
	// Duplicate sources are harmless.
	dm2 := MultiSourceDists(g, []graph.V{3, 3, 7}, -1, graph.Backward)
	if len(dm2) != len(dm) {
		t.Fatal("duplicate sources changed the result")
	}
}

// TestMultiSourceDistsMatchesPerSourceMin is the defining property: the
// multi-source map equals the pointwise min of per-source maps.
func TestMultiSourceDistsMatchesPerSourceMin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(3*n), 2)
		k := 1 + rng.Intn(3)
		srcs := make([]graph.V, k)
		for i := range srcs {
			srcs[i] = graph.V(rng.Intn(n))
		}
		limit := rng.Intn(5)
		got := MultiSourceDists(g, srcs, limit, graph.Backward)
		want := map[graph.V]int{}
		for _, s := range srcs {
			for v, d := range distancesFrom(g, s, limit) {
				if old, ok := want[v]; !ok || d < old {
					want[v] = d
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for v, d := range want {
			if got[v] != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// distancesFrom is the reference single-source BFS: hop distances from src
// along in-edges within limit hops (limit < 0: unbounded).
func distancesFrom(g *graph.Graph, src graph.V, limit int) map[graph.V]int {
	dist := map[graph.V]int{src: 0}
	queue := []graph.V{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		if limit >= 0 && dv == limit {
			continue
		}
		for _, w := range g.In(v) {
			if _, ok := dist[w]; !ok {
				dist[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func TestUndirectedDists(t *testing.T) {
	g := chainGraph(6)
	dm := UndirectedDists(g, 3, -1)
	// Undirected chain: symmetric distances.
	for v := 0; v < 6; v++ {
		want := v - 3
		if want < 0 {
			want = -want
		}
		if dm[graph.V(v)] != want {
			t.Fatalf("undirected dist[%d] = %d, want %d", v, dm[graph.V(v)], want)
		}
	}
}

func TestMinDistToLabels(t *testing.T) {
	// root -> a(1) -> b(2); also root -> b2(1) with same label as b.
	b := graph.NewBuilder(nil)
	root := b.AddVertex("root")
	a := b.AddVertex("A")
	bb := b.AddVertex("B")
	b2 := b.AddVertexLabel(b.Dict().Lookup("B"))
	b.AddEdge(root, a)
	b.AddEdge(a, bb)
	b.AddEdge(root, b2)
	g := b.Build()

	dists, nodes, ok := MinDistToLabels(g, root, []graph.Label{g.Label(a), g.Label(bb)}, 3)
	if !ok {
		t.Fatal("labels should be reachable")
	}
	if dists[0] != 1 || dists[1] != 1 {
		t.Fatalf("dists = %v", dists)
	}
	if nodes[1] != b2 {
		t.Fatalf("nearest B should be b2 (dist 1), got %d", nodes[1])
	}
	// Unreachable label within bound.
	_, _, ok = MinDistToLabels(g, b2, []graph.Label{g.Label(a)}, 3)
	if ok {
		t.Fatal("A is not reachable from b2")
	}
	// Duplicate labels in the query.
	dists, _, ok = MinDistToLabels(g, root, []graph.Label{g.Label(bb), g.Label(bb)}, 3)
	if !ok || dists[0] != 1 || dists[1] != 1 {
		t.Fatalf("duplicate labels: %v %v", dists, ok)
	}
}

func TestMinDistSmallestIDTieBreak(t *testing.T) {
	// Two same-label vertices at equal distance; the smaller ID must win.
	b := graph.NewBuilder(nil)
	root := b.AddVertex("r")
	x1 := b.AddVertex("X")
	x2 := b.AddVertexLabel(b.Dict().Lookup("X"))
	b.AddEdge(root, x2) // add edges in an order that tempts the wrong pick
	b.AddEdge(root, x1)
	g := b.Build()
	_, nodes, ok := MinDistToLabels(g, root, []graph.Label{g.Label(x1)}, 2)
	if !ok || nodes[0] != min(x1, x2) {
		t.Fatalf("tie-break: got %d want %d", nodes[0], min(x1, x2))
	}
}

func TestShortestPath(t *testing.T) {
	g := chainGraph(5)
	p := ShortestPath(g, 0, 4, -1, graph.Forward)
	if len(p) != 5 || p[0] != 0 || p[4] != 4 {
		t.Fatalf("path = %v", p)
	}
	if ShortestPath(g, 4, 0, -1, graph.Forward) != nil {
		t.Fatal("no forward path 4->0 in a chain")
	}
	if p := ShortestPathUndirected(g, 4, 0, -1); len(p) != 5 {
		t.Fatalf("undirected path = %v", p)
	}
	if p := ShortestPath(g, 2, 2, -1, graph.Forward); len(p) != 1 {
		t.Fatalf("self path = %v", p)
	}
	if ShortestPath(g, 0, 4, 2, graph.Forward) != nil {
		t.Fatal("bounded path should fail")
	}
}

func TestMatchKeyAndSort(t *testing.T) {
	a := Match{Root: 1, Dists: []int{1, 2}, Score: 3}
	b := Match{Root: 1, Dists: []int{2, 1}, Score: 3}
	if a.Key() == b.Key() {
		t.Fatal("different distance profiles must differ")
	}
	c := Match{Root: 2, Nodes: []graph.V{5, 6}, Score: 1}
	d := Match{Root: 2, Nodes: []graph.V{5, 7}, Score: 1}
	if c.Key() == d.Key() {
		t.Fatal("different node sets must differ")
	}
	ms := []Match{a, c, d}
	SortMatches(ms)
	if ms[0].Score != 1 || ms[2].Score != 3 {
		t.Fatal("sort by score failed")
	}
	if len(Truncate(ms, 2)) != 2 || len(Truncate(ms, 0)) != 3 {
		t.Fatal("truncate wrong")
	}
}

func TestMatchSubgraph(t *testing.T) {
	g := chainGraph(4)
	m := Match{Root: 0, Nodes: []graph.V{3}, Dists: []int{3}, Score: 3}
	sub := m.Subgraph(g)
	if len(sub.Vertices) != 4 || len(sub.Edges) != 3 {
		t.Fatalf("subgraph = %+v", sub)
	}
	if sub.Root != 0 {
		t.Fatal("root lost")
	}
}

// TestMatchKeyGolden pins Key's exact bytes: answer dedup, cache digests
// and the benchmark oracle all compare them.
func TestMatchKeyGolden(t *testing.T) {
	for _, c := range []struct {
		m    Match
		want string
	}{
		{Match{Root: 0, Dists: []int{}}, "r0|"},
		{Match{Root: 7, Dists: []int{0, 3, 12}}, "r7|0,3,12,"},
		{Match{Root: 4294967295, Dists: []int{-1, 1 << 40}}, "r4294967295|-1,1099511627776,"},
		{Match{Root: 12, Nodes: []graph.V{5, 0, 123456}}, "r12|5,0,123456,"},
		{Match{Root: 3, Nodes: []graph.V{9}, Dists: []int{2}}, "r3|2,"},
		{Match{Root: 3}, "r3|"},
	} {
		if got := c.m.Key(); got != c.want {
			t.Errorf("Key(%+v) = %q, want %q", c.m, got, c.want)
		}
	}
}

// TestSortMatchesMatchesFmtComparator: SortMatches orders exactly as the
// comparator that built both keys with fmt on every tied comparison, on
// random matches with many score ties.
func TestSortMatchesMatchesFmtComparator(t *testing.T) {
	fmtKey := func(m Match) string {
		var b strings.Builder
		fmt.Fprintf(&b, "r%d|", m.Root)
		if m.Dists != nil {
			for _, d := range m.Dists {
				fmt.Fprintf(&b, "%d,", d)
			}
			return b.String()
		}
		for _, n := range m.Nodes {
			fmt.Fprintf(&b, "%d,", n)
		}
		return b.String()
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		ms := make([]Match, rng.Intn(80))
		for i := range ms {
			m := Match{Root: graph.V(rng.Intn(120)), Score: float64(rng.Intn(4))}
			if rng.Intn(2) == 0 {
				for range 1 + rng.Intn(3) {
					m.Dists = append(m.Dists, rng.Intn(12))
				}
			} else {
				for range 1 + rng.Intn(3) {
					m.Nodes = append(m.Nodes, graph.V(rng.Intn(1000)))
				}
			}
			ms[i] = m
		}
		want := slices.Clone(ms)
		slices.SortFunc(want, func(a, b Match) int {
			switch {
			case a.Score < b.Score:
				return -1
			case a.Score > b.Score:
				return 1
			default:
				return strings.Compare(fmtKey(a), fmtKey(b))
			}
		})
		SortMatches(ms)
		for i := range want {
			if fmtKey(ms[i]) != fmtKey(want[i]) || ms[i].Score != want[i].Score {
				t.Fatalf("trial %d rank %d: %s, want %s", trial, i, fmtKey(ms[i]), fmtKey(want[i]))
			}
		}
	}
}
