package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"bigindex/internal/search/bkws"
)

// A pre-cancelled context makes EvalLayerCtx return promptly with the
// context's error; any matches that do come back must belong to the
// uncancelled answer set (sound but possibly incomplete).
func TestEvalCtxCancelled(t *testing.T) {
	ds := smallDataset(5)
	idx := buildIndex(t, ds)
	ev := NewEvaluator(idx, bkws.New(3), DefaultEvalOptions())
	rng := rand.New(rand.NewSource(5))
	q := pickQuery(rng, ds, 2, 3)

	full, _, err := ev.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	fullKeys := matchKeys(full)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms, _, err := ev.EvalLayerCtx(ctx, q, -1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, m := range ms {
		if _, ok := fullKeys[m.Key()]; !ok {
			t.Fatalf("partial result %s not in the uncancelled answer set", m.Key())
		}
	}
}

// An expired deadline surfaces as context.DeadlineExceeded (the signal the
// server maps to a degraded 200), again with only sound partial results.
func TestEvalCtxDeadline(t *testing.T) {
	ds := smallDataset(6)
	idx := buildIndex(t, ds)
	ev := NewEvaluator(idx, bkws.New(3), DefaultEvalOptions())
	rng := rand.New(rand.NewSource(6))
	q := pickQuery(rng, ds, 2, 3)

	full, _, err := ev.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	fullKeys := matchKeys(full)

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	ms, _, err := ev.EvalLayerCtx(ctx, q, -1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	for _, m := range ms {
		if _, ok := fullKeys[m.Key()]; !ok {
			t.Fatalf("partial result %s not in the uncancelled answer set", m.Key())
		}
	}
}

func TestDirectCtxCancelled(t *testing.T) {
	ds := smallDataset(7)
	idx := buildIndex(t, ds)
	ev := NewEvaluator(idx, bkws.New(3), DefaultEvalOptions())
	rng := rand.New(rand.NewSource(7))
	q := pickQuery(rng, ds, 2, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.DirectCtx(ctx, q, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
