package search

import (
	"fmt"
	"math"
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

// distancesFrom is the reference traversal, kept apart from the kernel: a
// FIFO breadth-first search with a distance map from every source at once
// (duplicates once), following rule within limit hops (limit < 0:
// unbounded). It returns the distances and the vertices in visiting order.
func distancesFrom(g *graph.Graph, sources []graph.V, limit int, rule Rule) (map[graph.V]int, []graph.V) {
	dist := map[graph.V]int{}
	var order []graph.V
	for _, s := range sources {
		if _, ok := dist[s]; !ok {
			dist[s] = 0
			order = append(order, s)
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		dv := dist[v]
		if limit >= 0 && dv == limit {
			continue
		}
		var next []graph.V
		if rule != In {
			next = append(next, g.Out(v)...)
		}
		if rule != Out {
			next = append(next, g.In(v)...)
		}
		for _, w := range next {
			if _, ok := dist[w]; !ok {
				dist[w] = dv + 1
				order = append(order, w)
			}
		}
	}
	return dist, order
}

// loopyGraph draws a random graph with self-loops and two-cycles.
func loopyGraph(rng *rand.Rand, n, e int) *graph.Graph {
	b := graph.NewBuilder(nil)
	l := b.Dict().Intern("x")
	for i := 0; i < n; i++ {
		b.AddVertexLabel(l)
	}
	for i := 0; i < e; i++ {
		u, w := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
		switch rng.Intn(5) {
		case 0:
			b.AddEdge(u, u)
		case 1:
			b.AddEdge(u, w)
			b.AddEdge(w, u)
		default:
			b.AddEdge(u, w)
		}
	}
	return b.Build()
}

// ballAgrees runs the kernel both on the probe row (Ball) and on keyword
// row kw (KeywordBall) and compares each with the reference: the same
// vertices in the same level order, at the same distances, and nothing
// else reads as reached.
func ballAgrees(g *graph.Graph, sources []graph.V, limit int, rule Rule, kw int) error {
	want, wantOrder := distancesFrom(g, sources, limit, rule)
	s := GetScratch(g.NumVertices(), kw+1)
	defer PutScratch(s)
	check := func(name string, got []graph.V, dist func(graph.V) (int, bool)) error {
		if !slices.Equal(got, wantOrder) {
			return fmt.Errorf("%s rule %d limit %d sources %v: order %v, want %v", name, rule, limit, sources, got, wantOrder)
		}
		for v := range g.NumVertices() {
			d, ok := dist(graph.V(v))
			wd, wok := want[graph.V(v)]
			if ok != wok || ok && d != wd {
				return fmt.Errorf("%s rule %d limit %d sources %v: dist[%d] = %d,%v, want %d,%v", name, rule, limit, sources, v, d, ok, wd, wok)
			}
		}
		return nil
	}
	if err := check("Ball", slices.Clone(s.Ball(g, sources, limit, rule)), s.BallDist); err != nil {
		return err
	}
	got := slices.Clone(s.KeywordBall(g, kw, sources, limit, rule))
	return check("KeywordBall", got, func(v graph.V) (int, bool) { return s.Dist(kw, v) })
}

// TestBallMatchesReference: forward, backward multi-source and undirected
// traversals agree with the reference on random graphs with cycles and
// self-loops, at limits -1, 0, 1 and 3, on fresh and reused Scratches.
func TestBallMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(30)
		g := loopyGraph(rng, n, rng.Intn(3*n))
		srcs := make([]graph.V, 1+rng.Intn(3))
		for i := range srcs {
			srcs[i] = graph.V(rng.Intn(n))
		}
		for _, limit := range []int{-1, 0, 1, 3} {
			for _, rule := range []Rule{Out, In, Both} {
				if err := ballAgrees(g, srcs, limit, rule, rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestBallEpochWrap: with every Scratch handed out at epoch and probe
// math.MaxUint32, each GetScratch's first traversal wraps its counter, so
// rows stamped before the wrap must be cleared, not read as current.
func TestBallEpochWrap(t *testing.T) {
	old := SetTestEpoch(math.MaxUint32)
	t.Cleanup(func() { SetTestEpoch(old) })
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(25)
		g := loopyGraph(rng, n, rng.Intn(3*n))
		for _, limit := range []int{-1, 0, 1, 3} {
			for _, rule := range []Rule{Out, In, Both} {
				src := []graph.V{graph.V(rng.Intn(n))}
				if err := ballAgrees(g, src, limit, rule, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FuzzBallAgree: on a fuzzed small graph, sources, limit and rule, the
// kernel agrees with the reference traversal. The first byte picks the
// vertex count, the next three the limit, the rule and the source count;
// then come the sources, then edges as byte pairs (self-loops and cycles
// included).
func FuzzBallAgree(f *testing.F) {
	f.Add([]byte{8, 3, 0, 1, 0, 0, 1, 1, 2, 2, 3, 3, 0, 4, 4, 5, 6})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{16, 255, 2, 3, 1, 9, 9, 0, 1, 1, 2, 2, 1, 5, 9, 9, 5, 15, 0, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%16
		limit := int(data[1])%6 - 1
		rule := Rule(data[2] % 3)
		ns := 1 + int(data[3])%3
		data = data[4:]
		if len(data) < ns {
			return
		}
		srcs := make([]graph.V, ns)
		for i := range srcs {
			srcs[i] = graph.V(int(data[i]) % n)
		}
		data = data[ns:]
		b := graph.NewBuilder(nil)
		l := b.Dict().Intern("x")
		for i := 0; i < n; i++ {
			b.AddVertexLabel(l)
		}
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(graph.V(int(data[i])%n), graph.V(int(data[i+1])%n))
		}
		if err := ballAgrees(b.Build(), srcs, limit, rule, 1); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMultiSourceDistsChain(t *testing.T) {
	g := chainGraph(10)
	s := GetScratch(g.NumVertices(), 1)
	defer PutScratch(s)
	// Backward from vertex 9: dist[v] = 9 - v.
	s.Ball(g, []graph.V{9}, -1, In)
	for v := 0; v < 10; v++ {
		if d, _ := s.BallDist(graph.V(v)); d != 9-v {
			t.Fatalf("dist[%d] = %d", v, d)
		}
	}
	// Bounded.
	if got := s.Ball(g, []graph.V{9}, 3, In); len(got) != 4 {
		t.Fatalf("bounded ball size %d, want 4", len(got))
	}
	// Multi-source takes the minimum.
	s.Ball(g, []graph.V{3, 7}, -1, In)
	d2, _ := s.BallDist(2)
	d5, _ := s.BallDist(5)
	d0, _ := s.BallDist(0)
	if d2 != 1 || d5 != 2 || d0 != 3 {
		t.Fatalf("multi-source dists wrong: %d %d %d", d2, d5, d0)
	}
	// Duplicate sources are harmless.
	if a, b := len(s.Ball(g, []graph.V{3, 3, 7}, -1, In)), len(s.Ball(g, []graph.V{3, 7}, -1, In)); a != b {
		t.Fatal("duplicate sources changed the result")
	}
}

// TestMultiSourceDistsMatchesPerSourceMin is the defining property: the
// multi-source row equals the pointwise min of per-source rows.
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
		s := GetScratch(n, 1)
		defer PutScratch(s)
		got := s.KeywordBall(g, 0, srcs, limit, In)
		want := map[graph.V]int{}
		for _, src := range srcs {
			dist, _ := distancesFrom(g, []graph.V{src}, limit, In)
			for v, d := range dist {
				if old, ok := want[v]; !ok || d < old {
					want[v] = d
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for v, d := range want {
			if gd, ok := s.Dist(0, v); !ok || gd != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedDists(t *testing.T) {
	g := chainGraph(6)
	s := GetScratch(g.NumVertices(), 0)
	defer PutScratch(s)
	s.Ball(g, []graph.V{3}, -1, Both)
	// Undirected chain: symmetric distances.
	for v := 0; v < 6; v++ {
		want := v - 3
		if want < 0 {
			want = -want
		}
		if d, _ := s.BallDist(graph.V(v)); d != want {
			t.Fatalf("undirected dist[%d] = %d, want %d", v, d, want)
		}
	}
}

// minDistToLabels runs one MinDistToLabels probe on a pooled Scratch.
func minDistToLabels(g *graph.Graph, root graph.V, labels []graph.Label, limit int) ([]int, []graph.V, bool) {
	s := GetScratch(g.NumVertices(), 0)
	defer PutScratch(s)
	dists, nodes, ok := s.MinDistToLabels(g, root, labels, limit)
	return slices.Clone(dists), slices.Clone(nodes), ok
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

	dists, nodes, ok := minDistToLabels(g, root, []graph.Label{g.Label(a), g.Label(bb)}, 3)
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
	_, _, ok = minDistToLabels(g, b2, []graph.Label{g.Label(a)}, 3)
	if ok {
		t.Fatal("A is not reachable from b2")
	}
	// Duplicate labels in the query.
	dists, _, ok = minDistToLabels(g, root, []graph.Label{g.Label(bb), g.Label(bb)}, 3)
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
	_, nodes, ok := minDistToLabels(g, root, []graph.Label{g.Label(x1)}, 2)
	if !ok || nodes[0] != min(x1, x2) {
		t.Fatalf("tie-break: got %d want %d", nodes[0], min(x1, x2))
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
