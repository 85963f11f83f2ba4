package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// buildReference is the sort-based freeze Builder.Build replaced: one
// global sort of the edge list by (From, To), a compaction, and a stable
// counting sort on To for the in-rows. Build must produce the same graph.
func buildReference(b *Builder) *Graph {
	n := len(b.labels)
	labels := append([]Label(nil), b.labels...)
	edges := append([]Edge(nil), b.edges...)
	slices.SortFunc(edges, func(a, e Edge) int {
		if a.From != e.From {
			return int(a.From) - int(e.From)
		}
		return int(a.To) - int(e.To)
	})
	edges = slices.Compact(edges)
	g := &Graph{
		dict:    b.dict,
		labels:  labels,
		outOff:  make([]uint32, n+1),
		outAdj:  make([]V, len(edges)),
		inOff:   make([]uint32, n+1),
		inAdj:   make([]V, len(edges)),
		posting: make(map[Label][]V),
	}
	for i, e := range edges {
		g.outOff[e.From+1]++
		g.inOff[e.To+1]++
		g.outAdj[i] = e.To
	}
	for i := range n {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	next := slices.Clone(g.inOff[:n])
	for _, e := range edges {
		g.inAdj[next[e.To]] = e.From
		next[e.To]++
	}
	for v, l := range labels {
		g.posting[l] = append(g.posting[l], V(v))
	}
	return g
}

// checkBuildMatchesReference requires b.Build() to equal buildReference(b)
// row for row, with every row ascending and duplicate-free, and the same
// postings.
func checkBuildMatchesReference(t *testing.T, b *Builder) {
	t.Helper()
	got, want := b.Build(), buildReference(b)
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("Build: %d vertices, %d edges; reference %d, %d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := V(0); int(v) < want.NumVertices(); v++ {
		for _, dir := range []struct {
			name      string
			got, want []V
		}{{"Out", got.Out(v), want.Out(v)}, {"In", got.In(v), want.In(v)}} {
			if !slices.Equal(dir.got, dir.want) {
				t.Fatalf("%s(%d) = %v, reference %v", dir.name, v, dir.got, dir.want)
			}
			for i := 1; i < len(dir.got); i++ {
				if dir.got[i-1] >= dir.got[i] {
					t.Fatalf("%s(%d) = %v is not strictly ascending", dir.name, v, dir.got)
				}
			}
		}
	}
	for _, l := range want.DistinctLabels() {
		if !slices.Equal(got.VerticesWithLabel(l), want.VerticesWithLabel(l)) {
			t.Fatalf("posting %d = %v, reference %v", l, got.VerticesWithLabel(l), want.VerticesWithLabel(l))
		}
	}
	if len(got.DistinctLabels()) != len(want.DistinctLabels()) {
		t.Fatalf("%d distinct labels, reference %d", len(got.DistinctLabels()), len(want.DistinctLabels()))
	}
}

// TestBuildMatchesReference compares Build with the sort-based reference on
// random multigraphs: unsorted input, duplicate edges, self-loops and
// vertices without edges.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for range 200 {
		n := 1 + rng.Intn(50)
		b := NewBuilder(nil)
		for range n {
			b.AddVertexLabel(Label(1 + rng.Intn(4)))
		}
		for range rng.Intn(6 * n) {
			from, to := V(rng.Intn(n)), V(rng.Intn(n))
			b.AddEdge(from, to)
			if rng.Intn(4) == 0 {
				b.AddEdge(from, to)
			}
		}
		checkBuildMatchesReference(t, b)
	}
	checkBuildMatchesReference(t, NewBuilder(nil))
}

// FuzzBuilder decodes the input into a builder — the first byte picks the
// vertex count (≤ 64), the next ones labels, the rest edges as (from, to)
// byte pairs in input order — and requires Build to equal the reference.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 2, 0, 1, 0, 2, 0, 1, 0})
	f.Add([]byte{4, 0, 0, 0, 0, 3, 3, 3, 3, 0, 3})
	f.Add([]byte{6, 0, 1, 0, 1, 0, 1, 5, 0, 4, 0, 5, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		data = data[1:]
		b := NewBuilder(nil)
		for v := range n {
			l := 0
			if v < len(data) {
				l = int(data[v]) % 4
			}
			b.AddVertex(string(rune('A' + l)))
		}
		data = data[min(n, len(data)):]
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(V(int(data[i])%n), V(int(data[i+1])%n))
		}
		checkBuildMatchesReference(t, b)
	})
}
