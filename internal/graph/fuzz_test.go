package graph

import (
	"bytes"
	"testing"
)

// FuzzRead hardens the graph decoder against corrupted input: it must
// return an error or a structurally valid graph, never panic or hang.
func FuzzRead(f *testing.F) {
	// Seed with a valid serialization and a few mutations.
	b := NewBuilder(nil)
	x := b.AddVertex("x")
	y := b.AddVertex("y")
	b.AddEdge(x, y)
	var buf bytes.Buffer
	if _, err := b.Build().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("BIGG"))
	if len(valid) > 8 {
		trunc := append([]byte(nil), valid[:len(valid)/2]...)
		f.Add(trunc)
		flip := append([]byte(nil), valid...)
		flip[9] ^= 0xff
		f.Add(flip)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded graph must be internally consistent.
		n := g.NumVertices()
		for v := V(0); int(v) < n; v++ {
			if _, ok := g.Dict().NameOK(g.Label(v)); !ok {
				t.Fatalf("vertex %d has dangling label", v)
			}
			for _, w := range g.Out(v) {
				if int(w) >= n {
					t.Fatalf("edge to out-of-range vertex %d", w)
				}
			}
		}
	})
}

// FuzzReadBodyBytes does the same for the dictionary-less body decoder
// every snapshot section and graph file goes through, and requires an
// accepted body to be exactly what WriteBody makes of the decoded graph.
func FuzzReadBodyBytes(f *testing.F) {
	dict := NewDict()
	dict.Intern("a")
	dict.Intern("b")

	b := NewBuilder(dict)
	v := b.AddVertex("a")
	w := b.AddVertex("b")
	b.AddEdge(v, w)
	var buf bytes.Buffer
	if err := b.Build().WriteBody(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBodyBytes(data, dict)
		if err != nil {
			return
		}
		for vv := V(0); int(vv) < g.NumVertices(); vv++ {
			if int(g.Label(vv)) > dict.Len() || g.Label(vv) == NoLabel {
				t.Fatalf("vertex %d label out of dictionary", vv)
			}
		}
		var out bytes.Buffer
		if err := g.WriteBody(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted body does not re-encode to itself")
		}
	})
}
