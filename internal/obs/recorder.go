package obs

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Recorder is the in-process flight recorder: every query carries a
// lightweight trace, and at query end the recorder decides keep-or-drop
// (tail sampling). It retains, per time window, the K slowest queries,
// every query with a non-ok outcome (error/degraded/shed/cancelled), and
// a small uniform sample. Kept traces land in a bounded ring buffer
// served by the /debug/traces endpoints; the recorder also hosts the
// live-query registry behind /debug/active.
//
// All methods are nil-safe, so instrumented code calls unconditionally
// and a disabled recorder costs one nil check.
type Recorder struct {
	sample      float64
	storeSize   int
	keepSlowest int
	window      time.Duration

	kept    *CounterVec
	dropped *Counter

	mu          sync.Mutex
	ring        []*TraceRecord // capacity storeSize, oldest overwritten first
	next        int            // ring write cursor
	seq         uint64         // total kept, for most-recent-first ordering
	byID        map[string]*TraceRecord
	slowTop     []time.Duration // ascending; at most keepSlowest entries
	windowStart time.Time

	activeMu  sync.Mutex
	active    map[uint64]*activeEntry
	activeSeq uint64
}

// RecorderOptions configures a Recorder. Zero values pick defaults noted
// on each field.
type RecorderOptions struct {
	// Sample is the uniform keep probability for unremarkable queries.
	// 0 means the 0.01 default; negative disables uniform sampling
	// (outcome- and slowness-based retention still apply).
	Sample float64
	// StoreSize is the trace ring capacity (default 512).
	StoreSize int
	// KeepSlowest is K, the number of slowest queries retained per
	// window (default 8).
	KeepSlowest int
	// Window is the slow-query accounting window (default 1m). The
	// slowness threshold resets each window so a one-off spike does not
	// permanently raise the bar.
	Window time.Duration
	// Metrics, when set, registers bigindex_trace_kept_total{reason}
	// and bigindex_trace_dropped_total on the registry.
	Metrics *Registry
}

// NewRecorder creates a flight recorder.
func NewRecorder(opts RecorderOptions) *Recorder {
	if opts.Sample == 0 {
		opts.Sample = 0.01
	} else if opts.Sample < 0 {
		opts.Sample = 0
	}
	if opts.Sample > 1 {
		opts.Sample = 1
	}
	if opts.StoreSize <= 0 {
		opts.StoreSize = 512
	}
	if opts.KeepSlowest <= 0 {
		opts.KeepSlowest = 8
	}
	if opts.Window <= 0 {
		opts.Window = time.Minute
	}
	r := &Recorder{
		sample:      opts.Sample,
		storeSize:   opts.StoreSize,
		keepSlowest: opts.KeepSlowest,
		window:      opts.Window,
		ring:        make([]*TraceRecord, opts.StoreSize),
		byID:        make(map[string]*TraceRecord),
		active:      make(map[uint64]*activeEntry),
	}
	if opts.Metrics != nil {
		r.kept = opts.Metrics.CounterVec("bigindex_trace_kept_total",
			"Traces retained by the flight recorder, by tail-sampling reason.", "reason")
		r.dropped = opts.Metrics.Counter("bigindex_trace_dropped_total",
			"Traces discarded by the flight recorder at query end.")
	}
	return r
}

// TraceRecord is one retained trace: identity, outcome, why it was kept,
// and the full rendered span tree.
type TraceRecord struct {
	ID      string    `json:"id"`
	Query   string    `json:"query,omitempty"`
	Algo    string    `json:"algo,omitempty"`
	Outcome string    `json:"outcome"`
	Keep    string    `json:"keep"` // "outcome" | "slow" | "sample"
	Start   time.Time `json:"start"`
	DurUS   int64     `json:"dur_us"`
	// Cost is the query's resource ledger (work units per layer and per
	// shard worker, vertices expanded, frontier peak) when it has one;
	// /debug/traces/{id} serves it as the trace's cost breakdown.
	Cost  *LedgerSnapshot `json:"cost,omitempty"`
	Spans SpanJSON        `json:"spans"`

	seq uint64
}

// Finish hands a completed query's trace to the recorder, which decides
// keep-or-drop. outcome "ok" is unremarkable; anything else ("error",
// "degraded", "shed", "cancelled", …) is always kept. cost is the
// query's finalized resource ledger, attached to the retained trace (nil
// when the query never reached evaluation). Returns whether the trace was
// retained. Nil-safe; a nil trace is counted but never kept.
func (r *Recorder) Finish(t *Trace, algo, query, outcome string, dur time.Duration, cost *LedgerSnapshot) bool {
	if r == nil {
		return false
	}
	reason := ""
	switch {
	case outcome != "" && outcome != "ok":
		reason = "outcome"
	case r.isSlow(dur):
		reason = "slow"
	case r.sample > 0 && rand.Float64() < r.sample:
		reason = "sample"
	}
	if reason == "" || t == nil {
		r.dropped.Inc()
		return false
	}
	rec := &TraceRecord{
		ID:      t.ID(),
		Query:   query,
		Algo:    algo,
		Outcome: outcome,
		Keep:    reason,
		Start:   t.Root().start,
		DurUS:   dur.Microseconds(),
		Cost:    cost,
		Spans:   t.Snapshot(),
	}
	r.mu.Lock()
	if old := r.ring[r.next]; old != nil {
		delete(r.byID, old.ID)
	}
	r.seq++
	rec.seq = r.seq
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
	r.byID[rec.ID] = rec
	r.mu.Unlock()
	r.kept.With(reason).Inc()
	return true
}

// isSlow reports whether dur ranks among the K slowest of the current
// window, and records it in the window's top-K either way it can.
func (r *Recorder) isSlow(dur time.Duration) bool {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if now.Sub(r.windowStart) > r.window {
		r.windowStart = now
		r.slowTop = r.slowTop[:0]
	}
	if len(r.slowTop) < r.keepSlowest {
		r.slowTop = insertDur(r.slowTop, dur)
		return true
	}
	if dur <= r.slowTop[0] {
		return false
	}
	r.slowTop = insertDur(r.slowTop[1:], dur)
	return true
}

func insertDur(s []time.Duration, d time.Duration) []time.Duration {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= d })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = d
	return s
}

// TraceFilter selects traces for Traces. Zero fields match everything.
type TraceFilter struct {
	Algo    string        // exact algo match
	Outcome string        // exact outcome match
	MinDur  time.Duration // minimum duration
	Since   time.Time     // only traces started at or after this instant
	Limit   int           // max results (0 = 50)
}

// Traces returns kept traces matching the filter, most recent first.
func (r *Recorder) Traces(f TraceFilter) []*TraceRecord {
	if r == nil {
		return nil
	}
	if f.Limit <= 0 {
		f.Limit = 50
	}
	r.mu.Lock()
	all := make([]*TraceRecord, 0, len(r.byID))
	for _, rec := range r.ring {
		if rec != nil {
			all = append(all, rec)
		}
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	out := make([]*TraceRecord, 0, min(f.Limit, len(all)))
	for _, rec := range all {
		if f.Algo != "" && rec.Algo != f.Algo {
			continue
		}
		if f.Outcome != "" && rec.Outcome != f.Outcome {
			continue
		}
		if rec.DurUS < f.MinDur.Microseconds() {
			continue
		}
		if !f.Since.IsZero() && rec.Start.Before(f.Since) {
			continue
		}
		out = append(out, rec)
		if len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Get returns the kept trace with the given ID, if still in the ring.
func (r *Recorder) Get(id string) (*TraceRecord, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.byID[id]
	return rec, ok
}

// Len returns the number of traces currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// RecorderStats is the flight recorder's occupancy as reported on
// /stats: ring capacity, retained traces broken down by keep reason, and
// the live-query count.
type RecorderStats struct {
	Capacity int            `json:"capacity"`
	Retained int            `json:"retained"`
	ByReason map[string]int `json:"by_reason,omitempty"`
	Active   int            `json:"active"`
}

// Occupancy snapshots the recorder's ring: how full it is and why each
// retained trace was kept. Nil-safe (zero stats).
func (r *Recorder) Occupancy() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	st := RecorderStats{ByReason: map[string]int{}}
	r.mu.Lock()
	st.Capacity = len(r.ring)
	for _, rec := range r.ring {
		if rec == nil {
			continue
		}
		st.Retained++
		st.ByReason[rec.Keep]++
	}
	r.mu.Unlock()
	r.activeMu.Lock()
	st.Active = len(r.active)
	r.activeMu.Unlock()
	return st
}

type activeEntry struct {
	trace *Trace
	algo  string
	query string
	start time.Time
}

// Begin registers an in-flight query with the live registry and returns a
// token for End. The trace may be nil (e.g. a query waiting in the shed
// gate before any trace exists); the entry still shows up in Active.
func (r *Recorder) Begin(t *Trace, algo, query string) uint64 {
	if r == nil {
		return 0
	}
	e := &activeEntry{trace: t, algo: algo, query: query, start: time.Now()}
	r.activeMu.Lock()
	r.activeSeq++
	tok := r.activeSeq
	r.active[tok] = e
	r.activeMu.Unlock()
	return tok
}

// End removes an in-flight query registered by Begin. Token 0 is a no-op.
func (r *Recorder) End(token uint64) {
	if r == nil || token == 0 {
		return
	}
	r.activeMu.Lock()
	delete(r.active, token)
	r.activeMu.Unlock()
}

// ActiveQuery is one in-flight query as reported by /debug/active.
type ActiveQuery struct {
	TraceID   string `json:"trace_id,omitempty"`
	Algo      string `json:"algo,omitempty"`
	Query     string `json:"query"`
	ElapsedUS int64  `json:"elapsed_us"`
	Current   string `json:"current,omitempty"` // span path, e.g. "query>Eval>Search"
}

// Active snapshots the live-query registry, longest-running first.
func (r *Recorder) Active() []ActiveQuery {
	if r == nil {
		return nil
	}
	r.activeMu.Lock()
	entries := make([]*activeEntry, 0, len(r.active))
	for _, e := range r.active {
		entries = append(entries, e)
	}
	r.activeMu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].start.Before(entries[j].start) })
	now := time.Now()
	out := make([]ActiveQuery, len(entries))
	for i, e := range entries {
		out[i] = ActiveQuery{
			TraceID:   e.trace.ID(),
			Algo:      e.algo,
			Query:     e.query,
			ElapsedUS: now.Sub(e.start).Microseconds(),
			Current:   e.trace.Root().CurrentPath(),
		}
	}
	return out
}
