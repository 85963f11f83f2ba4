package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomGraphT(rng *rand.Rand, n, e int) *Graph {
	b := NewBuilder(nil)
	for i := 0; i < n; i++ {
		b.AddVertex("l" + string(rune('a'+rng.Intn(5))))
	}
	for i := 0; i < e; i++ {
		b.AddEdge(V(rng.Intn(n)), V(rng.Intn(n)))
	}
	return b.Build()
}

func TestBodyRoundTripSharedDict(t *testing.T) {
	// Two graphs over one dictionary written as bodies and read back
	// against a single dictionary keep identical labels.
	dict := NewDict()
	b1 := NewBuilder(dict)
	x := b1.AddVertex("x")
	y := b1.AddVertex("y")
	b1.AddEdge(x, y)
	g1 := b1.Build()

	b2 := NewBuilder(dict)
	b2.AddVertex("y")
	b2.AddVertex("z")
	g2 := b2.Build()

	var d, body1, body2 bytes.Buffer
	if err := WriteDict(&d, dict); err != nil {
		t.Fatal(err)
	}
	if err := g1.WriteBody(&body1); err != nil {
		t.Fatal(err)
	}
	if err := g2.WriteBody(&body2); err != nil {
		t.Fatal(err)
	}

	rd, err := ReadDict(&d)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ReadBodyBytes(body1.Bytes(), rd)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ReadBodyBytes(body2.Bytes(), rd)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Name(r1.Label(0)) != "x" || rd.Name(r2.Label(0)) != "y" {
		t.Fatal("labels scrambled")
	}
	if !r1.HasEdge(0, 1) {
		t.Fatal("edge lost")
	}
	if r2.NumEdges() != 0 {
		t.Fatal("phantom edges")
	}
}

// body assembles a raw WriteBody payload.
func body(labels []uint32, edges ...[2]uint32) []byte {
	var buf bytes.Buffer
	writeU32(&buf, uint32(len(labels)))
	for _, l := range labels {
		writeU32(&buf, l)
	}
	writeU32(&buf, uint32(len(edges)))
	for _, e := range edges {
		writeU32(&buf, e[0])
		writeU32(&buf, e[1])
	}
	return buf.Bytes()
}

func TestReadBodyRejectsBadLabels(t *testing.T) {
	dict := NewDict()
	dict.Intern("only")
	// Vertex with label 9 (out of range for a 1-entry dict).
	if _, err := ReadBodyBytes(body([]uint32{9}), dict); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad label: got %v", err)
	}
	// Edge out of range.
	if _, err := ReadBodyBytes(body([]uint32{1}, [2]uint32{0, 7}), dict); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad edge: got %v", err)
	}
	// Truncated input, and a body with bytes left over.
	valid := body([]uint32{1, 1}, [2]uint32{0, 1})
	for _, data := range [][]byte{valid[:2], valid[:len(valid)-1], append(valid[:len(valid):len(valid)], 0)} {
		if _, err := ReadBodyBytes(data, dict); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%d of %d bytes: got %v", len(data), len(valid), err)
		}
	}
}

// Every writer emits each CSR row sorted and deduplicated, so edges out of
// (From, To) order or repeated are not a body and must not decode.
func TestReadBodyBytesRejectsUnsortedEdges(t *testing.T) {
	dict := NewDict()
	dict.Intern("only")
	labels := []uint32{1, 1, 1}
	if _, err := ReadBodyBytes(body(labels, [2]uint32{0, 1}, [2]uint32{0, 2}, [2]uint32{1, 2}), dict); err != nil {
		t.Fatalf("sorted body rejected: %v", err)
	}
	for name, edges := range map[string][][2]uint32{
		"swapped":   {{0, 2}, {0, 1}, {1, 2}},
		"rows":      {{1, 2}, {0, 1}},
		"duplicate": {{0, 1}, {0, 1}, {1, 2}},
	} {
		if _, err := ReadBodyBytes(body(labels, edges...), dict); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s edges: got %v, want ErrBadFormat", name, err)
		}
	}
}

// TestCSRInvariants: adjacency built through the CSR matches a naive
// adjacency map for random graphs, in both directions.
func TestCSRInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := randomGraphT(rng, n, rng.Intn(4*n))

		out := make(map[V]map[V]bool)
		in := make(map[V]map[V]bool)
		for _, e := range g.Edges() {
			if out[e.From] == nil {
				out[e.From] = map[V]bool{}
			}
			if in[e.To] == nil {
				in[e.To] = map[V]bool{}
			}
			out[e.From][e.To] = true
			in[e.To][e.From] = true
		}
		totalOut, totalIn := 0, 0
		for v := V(0); int(v) < n; v++ {
			row := g.Out(v)
			totalOut += len(row)
			for i, w := range row {
				if !out[v][w] {
					return false
				}
				if i > 0 && row[i-1] >= w {
					return false // rows must be strictly ascending (dedup + sort)
				}
				if !g.HasEdge(v, w) {
					return false
				}
			}
			rin := g.In(v)
			totalIn += len(rin)
			for _, w := range rin {
				if !in[v][w] {
					return false
				}
			}
			if g.OutDegree(v) != len(row) || g.InDegree(v) != len(rin) {
				return false
			}
		}
		return totalOut == g.NumEdges() && totalIn == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPostingListsComplete: posting lists partition the vertex set.
func TestPostingListsComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := randomGraphT(rng, n, rng.Intn(2*n))
		count := 0
		for _, l := range g.DistinctLabels() {
			vs := g.VerticesWithLabel(l)
			count += len(vs)
			for _, v := range vs {
				if g.Label(v) != l {
					return false
				}
			}
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdges(t *testing.T) {
	dict := NewDict()
	a := dict.Intern("a")
	g := FromEdges(dict, []Label{a, a, a}, []Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("FromEdges: %v", g)
	}
	if g.String() == "" {
		t.Fatal("String empty")
	}
}

func TestDictNamesSortedAndLabels(t *testing.T) {
	d := NewDict()
	d.Intern("zeta")
	d.Intern("alpha")
	names := d.Names()
	if names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("Names = %v", names)
	}
	ls := d.Labels()
	if len(ls) != 2 || ls[0] != 1 || ls[1] != 2 {
		t.Fatalf("Labels = %v", ls)
	}
	if _, ok := d.NameOK(Label(5)); ok {
		t.Fatal("NameOK accepted bad label")
	}
	if s, ok := d.NameOK(ls[0]); !ok || s != "zeta" {
		t.Fatalf("NameOK = %q %v", s, ok)
	}
}
