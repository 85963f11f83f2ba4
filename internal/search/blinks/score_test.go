package blinks

import (
	"math/rand"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/search"
)

// TestCustomScore: the Sec. 5.3 ranking API — a caller-supplied score
// function reorders results, and generation recomputes the same scores so
// boosted answers stay consistent.
func TestCustomScore(t *testing.T) {
	maxDist := func(dists []int) float64 {
		m := 0
		for _, d := range dists {
			if d > m {
				m = d
			}
		}
		return float64(m)
	}
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(4*n), 3)
		q := []graph.Label{1, 2}

		def := New(Options{DMax: 3})
		custom := New(Options{DMax: 3, Score: maxDist})
		pd, _ := def.Prepare(g)
		pc, _ := custom.Prepare(g)
		dms, _ := pd.Search(q, 0)
		cms, _ := pc.Search(q, 0)
		if len(dms) != len(cms) {
			t.Fatalf("trial %d: answer sets differ in size", trial)
		}
		// Same roots and distance vectors; scores per the custom function.
		dk, ck := map[string][]int{}, map[string][]int{}
		for _, m := range dms {
			dk[m.Key()] = m.Dists
		}
		for _, m := range cms {
			ck[m.Key()] = m.Dists
			if m.Score != maxDist(m.Dists) {
				t.Fatalf("trial %d: custom score not applied", trial)
			}
		}
		for k := range dk {
			if _, ok := ck[k]; !ok {
				t.Fatalf("trial %d: custom scoring changed the answer set", trial)
			}
		}
		// Generation recomputes the custom score identically.
		gen := custom.NewGeneration(g, q, search.GenOptions{PathBased: true})
		all := make([]graph.V, n)
		for i := range all {
			all[i] = graph.V(i)
		}
		for _, m := range gen.Generate(all, nil) {
			if m.Score != maxDist(m.Dists) {
				t.Fatalf("trial %d: generation ignored the custom score", trial)
			}
		}
		// Top-k with a custom score still truncates correctly (no early
		// stop, exhaust-then-truncate).
		top, _ := pc.Search(q, 2)
		if len(cms) >= 2 && len(top) != 2 {
			t.Fatalf("trial %d: top-2 returned %d", trial, len(top))
		}
		for i := 1; i < len(top); i++ {
			if top[i].Score < top[i-1].Score {
				t.Fatalf("trial %d: custom-score results unsorted", trial)
			}
		}
	}
}
