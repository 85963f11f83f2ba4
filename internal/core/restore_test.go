package core

import (
	"testing"

	"bigindex/internal/graph"
)

// cloneLayers copies the layer slice and structs (not the graphs) so a
// test can corrupt one field without breaking the shared fixture.
func cloneLayers(x *Index) []*Layer {
	out := make([]*Layer, len(x.layers))
	for i, l := range x.layers {
		c := *l
		if l.Up != nil {
			c.Up = append([]graph.V(nil), l.Up...)
		}
		if l.Down != nil {
			c.Down = make([][]graph.V, len(l.Down))
			for s, row := range l.Down {
				c.Down[s] = append([]graph.V(nil), row...)
			}
		}
		out[i] = &c
	}
	return out
}

func TestNewFromLayersRoundTrip(t *testing.T) {
	ds := smallDataset(401)
	idx := buildIndex(t, ds)
	got, err := NewFromLayers(ds.Ont, cloneLayers(idx))
	if err != nil {
		t.Fatalf("NewFromLayers on a built index: %v", err)
	}
	if got.NumLayers() != idx.NumLayers() {
		t.Fatalf("layers %d, want %d", got.NumLayers(), idx.NumLayers())
	}
	if len(got.Configs()) != len(idx.Configs()) {
		t.Fatalf("seq %d, want %d", len(got.Configs()), len(idx.Configs()))
	}
	if got.Epoch() != 0 {
		t.Fatalf("restored epoch = %d, want 0 before RestoreEpoch", got.Epoch())
	}
	got.RestoreEpoch(42)
	if got.Epoch() != 42 {
		t.Fatalf("RestoreEpoch: %d", got.Epoch())
	}
}

// Every structural invariant is enforced: a decoder bug or tampered file
// must be rejected, never assembled into a silently wrong index.
func TestNewFromLayersRejectsCorruptStructures(t *testing.T) {
	ds := smallDataset(402)
	idx := buildIndex(t, ds)
	if idx.NumLayers() < 2 {
		t.Skip("need summary layers")
	}

	cases := map[string]func([]*Layer) []*Layer{
		"no layers":        func(ls []*Layer) []*Layer { return nil },
		"nil layer 0":      func(ls []*Layer) []*Layer { ls[0] = nil; return ls },
		"layer 0 with map": func(ls []*Layer) []*Layer { ls[0].Up = ls[1].Up; return ls },
		"layer without config": func(ls []*Layer) []*Layer {
			ls[1].Config = nil
			return ls
		},
		"foreign dict": func(ls []*Layer) []*Layer {
			b := graph.NewBuilder(nil)
			b.AddVertex("x")
			ls[0].Graph = b.Build()
			return ls
		},
		"short Up": func(ls []*Layer) []*Layer {
			ls[1].Up = ls[1].Up[:len(ls[1].Up)-1]
			return ls
		},
		"Up out of range": func(ls []*Layer) []*Layer {
			ls[1].Up[0] = graph.V(ls[1].Graph.NumVertices())
			return ls
		},
		"empty Down row": func(ls []*Layer) []*Layer {
			ls[1].Down[0] = nil
			return ls
		},
		"non-inverse Down": func(ls []*Layer) []*Layer {
			// Point a member at a row its Up entry disagrees with.
			if len(ls[1].Down) < 2 {
				return nil // fixture too small; treated as "no layers" reject
			}
			ls[1].Down[0][0], ls[1].Down[1][0] = ls[1].Down[1][0], ls[1].Down[0][0]
			return ls
		},
		"duplicate member": func(ls []*Layer) []*Layer {
			ls[1].Down[0] = append(ls[1].Down[0], ls[1].Down[0][0])
			return ls
		},
		"descending members": func(ls []*Layer) []*Layer {
			for _, row := range ls[1].Down {
				if len(row) >= 2 {
					row[0], row[1] = row[1], row[0]
					return ls
				}
			}
			return nil // fixture too small; treated as "no layers" reject
		},
	}
	for name, corrupt := range cases {
		if _, err := NewFromLayers(ds.Ont, corrupt(cloneLayers(idx))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Refreshed leaves the receiver fully intact (the hot-swap contract: the
// old index keeps serving while the new one is built) and hands back a
// new index one epoch ahead.
func TestRefreshedNonMutating(t *testing.T) {
	ds := smallDataset(403)
	idx := buildIndex(t, ds)
	oldLayers := append([]*Layer(nil), idx.layers...)

	next, err := idx.Refreshed(ds.Graph)
	if err != nil {
		t.Fatalf("Refreshed: %v", err)
	}
	if idx.Epoch() != 0 {
		t.Fatalf("receiver epoch mutated to %d", idx.Epoch())
	}
	for i := range oldLayers {
		if idx.layers[i] != oldLayers[i] {
			t.Fatalf("receiver layer %d replaced", i)
		}
	}
	if next.Epoch() != 1 {
		t.Fatalf("new epoch = %d, want 1", next.Epoch())
	}
	if next == idx {
		t.Fatal("Refreshed returned the receiver")
	}
	if next.Data() != ds.Graph {
		t.Fatal("new index does not serve the supplied graph")
	}

	// Chained refreshes keep counting from the *source* epoch.
	third, err := next.Refreshed(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if third.Epoch() != 2 {
		t.Fatalf("chained epoch = %d, want 2", third.Epoch())
	}
}

// successor skips the checks of a layer it reuses from the receiver only
// while the layer below keeps the receiver's vertex count and dictionary;
// every layer it did not reuse is checked in full.
func TestSuccessorChecksWhatItDidNotReuse(t *testing.T) {
	ds := smallDataset(403)
	idx := buildIndex(t, ds)
	if idx.NumLayers() < 3 {
		t.Skip("need two summary layers")
	}
	own := func() []*Layer { return append([]*Layer(nil), idx.layers...) }
	if _, err := idx.successor(own()); err != nil {
		t.Fatalf("reusing every layer: %v", err)
	}
	// A data graph of n vertices over dict (nil = a fresh one).
	base := func(dict *graph.Dict, n int) *Layer {
		b := graph.NewBuilder(dict)
		for v := 0; v < n; v++ {
			b.AddVertex("v")
		}
		return &Layer{Graph: b.Build()}
	}
	n := idx.Data().NumVertices()
	cases := map[string]func([]*Layer) []*Layer{
		"reused layer over a grown base": func(ls []*Layer) []*Layer {
			ls[0] = base(idx.Data().Dict(), n+1)
			return ls
		},
		"reused layer over a foreign dictionary": func(ls []*Layer) []*Layer {
			ls[0] = base(nil, n)
			return ls
		},
		"rebuilt layer with a non-inverse Down": func(ls []*Layer) []*Layer {
			l := cloneLayers(idx)[1]
			l.Down[0][0], l.Down[1][0] = l.Down[1][0], l.Down[0][0]
			ls[1] = l
			return ls
		},
		"rebuilt top layer with a short Up": func(ls []*Layer) []*Layer {
			top := len(ls) - 1
			l := cloneLayers(idx)[top]
			l.Up = l.Up[:len(l.Up)-1]
			ls[top] = l
			return ls
		},
	}
	for name, corrupt := range cases {
		if _, err := idx.successor(corrupt(own())); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
