package server

import (
	"slices"
	"testing"

	"bigindex/internal/core"
	"bigindex/internal/graph"
	"bigindex/internal/text"
)

// TestSwapIndexReusesTextIndex: an edge-only batch keeps the dictionary
// and the labels present in the data graph, so the swapped-in bundle
// shares the text index; a batch that adds a vertex with a label new to
// the graph gets a rebuilt one. Either way every keyword matches exactly
// what a text index built from scratch over the new graph matches.
func TestSwapIndexReusesTextIndex(t *testing.T) {
	s, _ := testServer(t)
	g := s.Index().Data()
	var keywords []string
	for _, l := range g.Dict().Labels() {
		keywords = append(keywords, g.Dict().Name(l))
		keywords = append(keywords, text.Tokenize(g.Dict().Name(l))...)
	}
	checkMatches := func(tag string) {
		t.Helper()
		st := s.st()
		fresh := text.NewIndex(st.idx.Data().Dict(), st.idx.Data())
		for _, kw := range keywords {
			if got, want := st.tix.Match(kw), fresh.Match(kw); !slices.Equal(got, want) {
				t.Fatalf("%s: Match(%q) = %v, want %v", tag, kw, got, want)
			}
		}
	}

	add, remove := pickMutation(t, g)
	before := s.st().tix
	next, _, err := s.Index().Applied(core.Delta{AddEdges: []graph.Edge{add}, RemoveEdges: []graph.Edge{remove}}, core.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.SwapIndex(next)
	if s.st().tix != before {
		t.Fatal("edge-only batch rebuilt the text index")
	}
	checkMatches("edge-only")

	var absent graph.Label
	for _, l := range g.Dict().Labels() {
		if g.LabelCount(l) == 0 {
			absent = l
			break
		}
	}
	if absent == graph.NoLabel {
		t.Fatal("setup: every dictionary label occurs in the data graph")
	}
	next, _, err = s.Index().Applied(core.Delta{AddVertices: []graph.Label{absent}}, core.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.SwapIndex(next)
	if s.st().tix == before {
		t.Fatal("a batch adding a new label kept the old text index")
	}
	if !slices.Contains(s.st().tix.Match(g.Dict().Name(absent)), absent) {
		t.Fatalf("new label %q does not resolve", g.Dict().Name(absent))
	}
	checkMatches("new label")
}
