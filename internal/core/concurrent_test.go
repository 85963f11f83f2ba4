package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/search"
	"bigindex/internal/search/bkws"
)

// One evaluator serves concurrent queries (the server shares one per
// algorithm): EvalLayerCtx calls racing on a fresh evaluator, so layer
// preparation races too, must return exactly the sequential answers. Run
// under -race this checks the Evaluator's concurrency contract.
func TestConcurrentEvalMatchesSequential(t *testing.T) {
	ds := smallDataset(700)
	idx := buildIndex(t, ds)
	rng := rand.New(rand.NewSource(7))
	var queries [][]graph.Label
	for i := 0; i < 12; i++ {
		if q := pickQuery(rng, ds, 2, 3); q != nil {
			queries = append(queries, q)
		}
	}
	if len(queries) == 0 {
		t.Skip("no frequent labels")
	}

	ev := NewEvaluator(idx, bkws.New(3), DefaultEvalOptions())
	got := make([][]search.Match, len(queries))
	bds := make([]*Breakdown, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], bds[i], errs[i] = ev.EvalLayerCtx(context.Background(), q, -1)
		}()
	}
	wg.Wait()

	for i, q := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if bds[i] == nil {
			t.Fatalf("query %d missing breakdown", i)
		}
		want, _, err := ev.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got[i]) {
			t.Fatalf("query %d: concurrent %d vs sequential %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if want[j].Key() != got[i][j].Key() {
				t.Fatalf("query %d answer %d diverged", i, j)
			}
		}
	}
}
