package obs

import (
	"strings"
	"testing"
	"time"
)

func finishOne(r *Recorder, algo, outcome string, dur time.Duration) *Trace {
	t := NewTrace("query")
	t.Root().End()
	r.Finish(t, algo, "kw1,kw2", outcome, dur, &LedgerSnapshot{WorkUnits: 7})
	return t
}

// Non-ok outcomes are always retained, regardless of sampling or speed.
func TestRecorderKeepsBadOutcomes(t *testing.T) {
	r := NewRecorder(RecorderOptions{Sample: -1}) // uniform sampling off
	for _, outcome := range []string{"error", "degraded", "shed", "cancelled"} {
		tr := finishOne(r, "blinks", outcome, 0)
		rec, ok := r.Get(tr.ID())
		if !ok {
			t.Fatalf("outcome %q not retained", outcome)
		}
		if rec.Outcome != outcome || rec.Keep != "outcome" || rec.Cost == nil || rec.Cost.WorkUnits != 7 {
			t.Fatalf("outcome %q: got %+v", outcome, rec)
		}
	}
}

// With uniform sampling off, an ok query is kept only while it ranks among
// the window's K slowest.
func TestRecorderKeepSlowest(t *testing.T) {
	r := NewRecorder(RecorderOptions{Sample: -1, KeepSlowest: 2, Window: time.Hour})
	a := finishOne(r, "blinks", "ok", 10*time.Millisecond) // fills top-K
	b := finishOne(r, "blinks", "ok", 20*time.Millisecond) // fills top-K
	c := finishOne(r, "blinks", "ok", 5*time.Millisecond)  // below the bar
	d := finishOne(r, "blinks", "ok", 30*time.Millisecond) // displaces 10ms
	e := finishOne(r, "blinks", "ok", 15*time.Millisecond) // bar is now 20ms
	for id, want := range map[string]bool{
		a.ID(): true, b.ID(): true, c.ID(): false, d.ID(): true, e.ID(): false,
	} {
		if _, ok := r.Get(id); ok != want {
			t.Fatalf("trace %s retained=%v, want %v", id, ok, want)
		}
	}
	if rec, _ := r.Get(d.ID()); rec.Keep != "slow" {
		t.Fatalf("keep reason = %q, want slow", rec.Keep)
	}
}

// Sample=1 keeps everything; a query that is neither remarkable in outcome
// nor speed records the "sample" reason.
func TestRecorderUniformSample(t *testing.T) {
	r := NewRecorder(RecorderOptions{Sample: 1, KeepSlowest: 1, Window: time.Hour})
	finishOne(r, "blinks", "ok", time.Second) // occupies the K=1 slow slot
	tr := finishOne(r, "blinks", "ok", time.Millisecond)
	rec, ok := r.Get(tr.ID())
	if !ok || rec.Keep != "sample" {
		t.Fatalf("retained=%v rec=%+v, want keep=sample", ok, rec)
	}
}

// The ring is bounded: the oldest record is evicted (and un-indexed) once
// capacity is exceeded.
func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(RecorderOptions{Sample: -1, StoreSize: 2})
	a := finishOne(r, "blinks", "error", 0)
	b := finishOne(r, "blinks", "error", 0)
	c := finishOne(r, "blinks", "error", 0)
	if _, ok := r.Get(a.ID()); ok {
		t.Fatal("oldest record not evicted")
	}
	for _, id := range []string{b.ID(), c.ID()} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("recent record %s evicted", id)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestRecorderTracesFilter(t *testing.T) {
	r := NewRecorder(RecorderOptions{Sample: -1})
	finishOne(r, "blinks", "error", 5*time.Millisecond)
	finishOne(r, "bkws", "degraded", 50*time.Millisecond)
	last := finishOne(r, "blinks", "shed", 500*time.Millisecond)

	if got := r.Traces(TraceFilter{}); len(got) != 3 || got[0].ID != last.ID() {
		t.Fatalf("unfiltered: %d records, first %+v (want most recent first)", len(got), got[0])
	}
	if got := r.Traces(TraceFilter{Algo: "bkws"}); len(got) != 1 || got[0].Outcome != "degraded" {
		t.Fatalf("algo filter: %+v", got)
	}
	if got := r.Traces(TraceFilter{Outcome: "shed"}); len(got) != 1 {
		t.Fatalf("outcome filter: %+v", got)
	}
	if got := r.Traces(TraceFilter{MinDur: 40 * time.Millisecond}); len(got) != 2 {
		t.Fatalf("min-dur filter: %d records", len(got))
	}
	if got := r.Traces(TraceFilter{Limit: 1}); len(got) != 1 {
		t.Fatalf("limit: %d records", len(got))
	}
}

// The live registry surfaces in-flight queries with their current span
// path, and Begin works before any trace exists (the shed-gate case).
func TestRecorderActive(t *testing.T) {
	r := NewRecorder(RecorderOptions{})
	tr := NewTrace("query")
	sp := tr.Root().StartChild("Eval").StartChild("Search")
	tok := r.Begin(tr, "blinks", "kw1,kw2")
	tok2 := r.Begin(nil, "", "waiting")

	act := r.Active()
	if len(act) != 2 {
		t.Fatalf("Active = %d entries, want 2", len(act))
	}
	var traced *ActiveQuery
	for i := range act {
		if act[i].TraceID == tr.ID() {
			traced = &act[i]
		}
	}
	if traced == nil {
		t.Fatalf("traced query missing from %+v", act)
	}
	if !strings.Contains(traced.Current, "Search") {
		t.Fatalf("Current = %q, want span path through Search", traced.Current)
	}
	sp.End()

	r.End(tok)
	r.End(tok2)
	if got := r.Active(); len(got) != 0 {
		t.Fatalf("Active after End = %+v", got)
	}
}

// A disabled recorder (nil) is safe to call everywhere the server does.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	tr := NewTrace("query")
	if r.Finish(tr, "a", "q", "error", time.Second, nil) {
		t.Fatal("nil recorder claimed to retain a trace")
	}
	tok := r.Begin(tr, "a", "q")
	r.End(tok)
	if r.Active() != nil || r.Traces(TraceFilter{}) != nil || r.Len() != 0 {
		t.Fatal("nil recorder returned data")
	}
	if _, ok := r.Get("x"); ok {
		t.Fatal("nil recorder Get ok")
	}
}

// A nil trace with a remarkable outcome still must not be stored (there is
// nothing to show), only counted.
func TestRecorderNilTrace(t *testing.T) {
	r := NewRecorder(RecorderOptions{Sample: 1})
	if r.Finish(nil, "a", "q", "error", time.Second, nil) {
		t.Fatal("nil trace retained")
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRecorderKeptMetrics(t *testing.T) {
	reg := NewRegistry()
	r := NewRecorder(RecorderOptions{Sample: -1, Metrics: reg})
	finishOne(r, "blinks", "error", 0)
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `bigindex_trace_kept_total{reason="outcome"} 1`) {
		t.Fatalf("kept counter missing:\n%s", buf.String())
	}
}
