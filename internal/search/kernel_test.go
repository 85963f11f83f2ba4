package search_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/search"
	"bigindex/internal/search/bidir"
	"bigindex/internal/search/bkws"
	"bigindex/internal/search/blinks"
)

// referenceAnswers is the rooted semantics spelled out with maps: every
// vertex is tried as a root by a forward BFS bounded by dmax, and answers
// are ranked by (score, Key) and truncated to k. Witnesses are the
// smallest-ID vertices at each keyword's minimum distance.
func referenceAnswers(g *graph.Graph, q []graph.Label, dmax, k int) []search.Match {
	var out []search.Match
	for r := 0; r < g.NumVertices(); r++ {
		dist := map[graph.V]int{graph.V(r): 0}
		queue := []graph.V{graph.V(r)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] == dmax {
				continue
			}
			for _, w := range g.Out(v) {
				if _, ok := dist[w]; !ok {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		m := search.Match{Root: graph.V(r), Nodes: make([]graph.V, len(q)), Dists: make([]int, len(q))}
		ok := true
		for i, l := range q {
			best := -1
			for v, d := range dist {
				if g.Label(v) != l {
					continue
				}
				if best == -1 || d < best || d == best && v < m.Nodes[i] {
					best, m.Nodes[i] = d, v
				}
			}
			if best == -1 {
				ok = false
				break
			}
			m.Dists[i] = best
			m.Score += float64(best)
		}
		if ok {
			out = append(out, m)
		}
	}
	slices.SortFunc(out, func(a, b search.Match) int {
		if c := cmp.Compare(a.Score, b.Score); c != 0 {
			return c
		}
		return strings.Compare(a.Key(), b.Key())
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// kernelGraph draws a random labeled graph with cycles and self-loops.
func kernelGraph(rng *rand.Rand, n, e, labels int) *graph.Graph {
	b := graph.NewBuilder(nil)
	ls := make([]graph.Label, labels)
	for i := range ls {
		ls[i] = b.Dict().Intern(fmt.Sprintf("l%d", i))
	}
	for i := 0; i < n; i++ {
		b.AddVertexLabel(ls[rng.Intn(labels)])
	}
	for i := 0; i < e; i++ {
		u := graph.V(rng.Intn(n))
		switch rng.Intn(6) {
		case 0:
			b.AddEdge(u, u)
		case 1:
			w := graph.V(rng.Intn(n))
			b.AddEdge(u, w)
			b.AddEdge(w, u)
		default:
			b.AddEdge(u, graph.V(rng.Intn(n)))
		}
	}
	return b.Build()
}

func sameAnswers(got, want []search.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key() != w.Key() || g.Score != w.Score || !slices.Equal(g.Nodes, w.Nodes) {
			return fmt.Errorf("rank %d: %s score %v nodes %v, want %s score %v nodes %v",
				i, g.Key(), g.Score, g.Nodes, w.Key(), w.Score, w.Nodes)
		}
	}
	return nil
}

type kernelCase struct {
	q    []graph.Label
	k    int
	want []search.Match
}

// checkRooted runs bkws, bidir and Blinks on one shared Prepared each from
// 8 goroutines, every goroutine over every case, and compares each answer
// with the reference.
func checkRooted(t *testing.T, g *graph.Graph, dmax int, cases []kernelCase) {
	t.Helper()
	algos := []search.Algorithm{bkws.New(dmax), bidir.New(dmax), blinks.New(blinks.Options{DMax: dmax})}
	for _, a := range algos {
		p, err := a.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range cases {
					c := &cases[(i+w)%len(cases)]
					got, err := p.Search(c.q, c.k)
					if err == nil {
						err = sameAnswers(got, c.want)
					}
					if err != nil {
						errs <- fmt.Errorf("%s dmax %d q %v k %d: %v", a.Name(), dmax, c.q, c.k, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

func randomCases(rng *rand.Rand, g *graph.Graph, dmax int, queries int) []kernelCase {
	var cases []kernelCase
	for i := 0; i < queries; i++ {
		q := make([]graph.Label, 1+rng.Intn(4))
		for j := range q {
			q[j] = graph.Label(1 + rng.Intn(g.Dict().Len()))
		}
		for _, k := range []int{0, 1, 3, 10} {
			cases = append(cases, kernelCase{q: q, k: k, want: referenceAnswers(g, q, dmax, k)})
		}
	}
	return cases
}

// TestRootedKernelMatchesReference: every rooted search returns the
// reference answers, witnesses included, on random graphs with cycles and
// self-loops, while 8 goroutines share each Prepared (and the scratch
// pool).
func TestRootedKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(60)
		g := kernelGraph(rng, n, rng.Intn(3*n), 2+rng.Intn(4))
		for _, dmax := range []int{1, 3, 5} {
			checkRooted(t, g, dmax, randomCases(rng, g, dmax, 6))
		}
	}
}

// TestRootedKernelEpochWrap: with every scratch handed out at epoch
// math.MaxUint32, each search and each forward probe starts by wrapping
// the epoch, so rows written under the previous epoch 1 must be cleared,
// not read as current.
func TestRootedKernelEpochWrap(t *testing.T) {
	old := search.SetTestEpoch(math.MaxUint32)
	t.Cleanup(func() { search.SetTestEpoch(old) })
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		n := 5 + rng.Intn(40)
		g := kernelGraph(rng, n, rng.Intn(3*n), 2+rng.Intn(3))
		for _, dmax := range []int{1, 3, 5} {
			checkRooted(t, g, dmax, randomCases(rng, g, dmax, 4))
		}
	}
}

// TestRootedKernelWideDMax: a distance bound wider than any distance a
// row could hold is exact: shortest distances never exceed |V|−1, and the
// rows keep 32 bits of distance.
func TestRootedKernelWideDMax(t *testing.T) {
	// A 300-vertex path ending in the only "end" vertex, plus a back edge
	// so the path is a cycle: distances up to 299, far past 8 bits.
	const n = 300
	b := graph.NewBuilder(nil)
	mid, end := b.Dict().Intern("mid"), b.Dict().Intern("end")
	for i := 0; i < n-1; i++ {
		b.AddVertexLabel(mid)
	}
	b.AddVertexLabel(end)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.V(i), graph.V(i+1))
	}
	b.AddEdge(n-1, 0)
	g := b.Build()
	var cases []kernelCase
	for _, q := range [][]graph.Label{{end}, {end, mid}} {
		for _, k := range []int{0, 3} {
			cases = append(cases, kernelCase{q: q, k: k, want: referenceAnswers(g, q, n, k)})
		}
	}
	if len(cases[0].want) != n || cases[0].want[n-1].Score != n-1 {
		t.Fatalf("reference: %d answers, worst score %v", len(cases[0].want), cases[0].want[len(cases[0].want)-1].Score)
	}
	checkRooted(t, g, math.MaxInt, cases)
}

// FuzzRootedAgree: on a fuzzed small graph and query, bkws, bidir and
// Blinks all return the reference answers. The first bytes pick the vertex
// count, label count, d_max, k and the query; each later byte pair is an
// edge (self-loops and cycles included).
func FuzzRootedAgree(f *testing.F) {
	f.Add([]byte{8, 3, 2, 0, 2, 0, 1, 0, 1, 1, 2, 2, 3, 3, 0, 4, 4, 5, 6})
	f.Add([]byte{1, 1, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{16, 4, 4, 3, 3, 1, 2, 3, 0, 1, 1, 2, 2, 1, 5, 9, 9, 5, 15, 0, 7, 7})
	// The balls of l0 and l1 (d_max 2) are disjoint, so bkws and Blinks
	// stop before expanding l2.
	f.Add([]byte{4, 3, 1, 0, 2, 0, 1, 2, 0, 1, 2, 2, 2, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 1 + int(data[0])%16
		labels := 1 + int(data[1])%4
		dmax := 1 + int(data[2])%5
		k := int(data[3]) % 5
		nq := 1 + int(data[4])%3
		data = data[5:]
		if len(data) < nq+n {
			return
		}
		b := graph.NewBuilder(nil)
		ls := make([]graph.Label, labels)
		for i := range ls {
			ls[i] = b.Dict().Intern(fmt.Sprintf("l%d", i))
		}
		q := make([]graph.Label, nq)
		for i := range q {
			q[i] = ls[int(data[i])%labels]
		}
		data = data[nq:]
		for i := 0; i < n; i++ {
			b.AddVertexLabel(ls[int(data[i])%labels])
		}
		data = data[n:]
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(graph.V(int(data[i])%n), graph.V(int(data[i+1])%n))
		}
		g := b.Build()
		want := referenceAnswers(g, q, dmax, k)
		for _, a := range []search.Algorithm{bkws.New(dmax), bidir.New(dmax), blinks.New(blinks.Options{DMax: dmax})} {
			p, err := a.Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Search(q, k)
			if err == nil {
				err = sameAnswers(got, want)
			}
			if err != nil {
				t.Fatalf("%s dmax %d k %d q %v edges %v: %v", a.Name(), dmax, k, q, g.Edges(), err)
			}
		}
	})
}
