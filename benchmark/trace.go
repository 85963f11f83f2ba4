package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bigindex/internal/graph"
	"bigindex/internal/search"
	"bigindex/internal/shard"
)

// span is one timed interval at a layer boundary. Spans are recorded by the
// benchmark's own wrappers around the calls into each layer; the program
// under test is not touched.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0 = root
	Req    uint64 `json:"req,omitempty"`    // request the span belongs to
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	next   atomic.Uint64
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// enable switches recording; a nil tracer ignores it.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// live is a span in progress. A nil *live is inert, so wrappers need no
// "is tracing on" branches.
type live struct {
	t *tracer
	s span
}

type spanKey struct{}

func withSpan(ctx context.Context, l *live) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, l)
}

func spanFrom(ctx context.Context) *live {
	l, _ := ctx.Value(spanKey{}).(*live)
	return l
}

// start opens a span under parent (nil = root of request req).
func (t *tracer) start(parent *live, req uint64, name string) *live {
	if t == nil || !t.on.Load() {
		return nil
	}
	l := &live{t: t, s: span{ID: t.next.Add(1), Req: req, Name: name, Start: int64(time.Since(t.origin))}}
	if parent != nil {
		l.s.Parent, l.s.Req = parent.s.ID, parent.s.Req
	}
	return l
}

func (l *live) tag(s string) {
	if l != nil {
		l.s.Tag = s
	}
}

func (l *live) end() {
	if l == nil {
		return
	}
	l.s.End = int64(time.Since(l.t.origin))
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.s)
	l.t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

const spanHeader = "X-Bench-Span"

// middleware opens the server.handler span around the program's handler,
// linked to the client's request span through the X-Bench-Span header.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		parent := &live{t: t, s: span{ID: id, Req: id}}
		l := t.start(parent, id, "server.handler")
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), l)))
		l.end()
	})
}

// tracedAlgo shadows an algorithm under its own name (through
// server.Options.ExtraAlgorithms). It forwards search.Rootless and
// search.StatsReporter, so evaluation is identical; the digest gate on
// every traced response proves it.
type tracedAlgo struct {
	inner search.Algorithm
	t     *tracer
}

func (a tracedAlgo) Name() string { return a.inner.Name() }

func (a tracedAlgo) Rootless() bool {
	r, ok := a.inner.(search.Rootless)
	return ok && r.Rootless()
}

func (a tracedAlgo) Prepare(g *graph.Graph) (search.Prepared, error) {
	// Prepare takes no context, so its span is a root of its own.
	l := a.t.start(nil, 0, "search.prepare")
	l.tag(a.inner.Name())
	p, err := a.inner.Prepare(g)
	l.end()
	if err != nil {
		return nil, err
	}
	return tracedPrepared{inner: p, t: a.t, name: a.inner.Name()}, nil
}

func (a tracedAlgo) NewGeneration(data *graph.Graph, q []graph.Label, opt search.GenOptions) search.Generation {
	return tracedGen{inner: a.inner.NewGeneration(data, q, opt), t: a.t, name: a.inner.Name()}
}

type tracedPrepared struct {
	inner search.Prepared
	t     *tracer
	name  string
}

func (p tracedPrepared) Search(q []graph.Label, k int) ([]search.Match, error) {
	return p.SearchCtx(context.Background(), q, k)
}

func (p tracedPrepared) SearchCtx(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
	l := p.t.start(spanFrom(ctx), 0, "search.search")
	l.tag(p.name)
	ms, err := p.inner.SearchCtx(withSpan(ctx, l), q, k)
	l.end()
	return ms, err
}

type tracedGen struct {
	inner search.Generation
	t     *tracer
	name  string
}

func (g tracedGen) Generate(rootCands []graph.V, cands [][]graph.V) []search.Match {
	return g.GenerateCtx(context.Background(), rootCands, cands)
}

func (g tracedGen) GenerateCtx(ctx context.Context, rootCands []graph.V, cands [][]graph.V) []search.Match {
	l := g.t.start(spanFrom(ctx), 0, "search.generate")
	l.tag(g.name)
	ms := g.inner.GenerateCtx(withSpan(ctx, l), rootCands, cands)
	l.end()
	return ms
}

func (g tracedGen) Stats() search.GenStats {
	if sr, ok := g.inner.(search.StatsReporter); ok {
		return sr.Stats()
	}
	return search.GenStats{}
}

// shardTap wraps a shard.ShardServer (shard.Local or the shardrpc client
// bound to a plan): it opens a span per call and counts calls, rounds and
// time for the direct-call probes. layer is "shard" or "shardrpc".
type shardTap struct {
	inner shard.ShardServer
	t     *tracer
	layer string

	mu      sync.Mutex
	expands []time.Duration
	calls   int64 // Expand + Verify
	levels  map[int32]bool
	rounds  int64
}

func (s *shardTap) Expand(ctx context.Context, req *shard.ExpandRequest) (*shard.ExpandResponse, error) {
	l := s.t.start(spanFrom(ctx), 0, s.layer+".expand")
	t0 := time.Now()
	resp, err := s.inner.Expand(withSpan(ctx, l), req)
	d := time.Since(t0)
	l.end()
	s.mu.Lock()
	s.expands = append(s.expands, d)
	s.calls++
	if s.levels != nil {
		s.levels[req.Level] = true
	}
	s.mu.Unlock()
	return resp, err
}

func (s *shardTap) Verify(ctx context.Context, req *shard.VerifyRequest) (*shard.VerifyResponse, error) {
	l := s.t.start(spanFrom(ctx), 0, s.layer+".verify")
	resp, err := s.inner.Verify(withSpan(ctx, l), req)
	l.end()
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return resp, err
}

// beginQuery / endQuery bracket one search so rounds (distinct expansion
// levels) are counted per query. Queries are issued one at a time.
func (s *shardTap) beginQuery() {
	s.mu.Lock()
	s.levels = make(map[int32]bool)
	s.mu.Unlock()
}

func (s *shardTap) endQuery() {
	s.mu.Lock()
	s.rounds += int64(len(s.levels))
	s.levels = nil
	s.mu.Unlock()
}

// spanStat summarises every span of one name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"` // total minus the part child spans cover
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children (children of a shard
// round run in parallel and overlap).
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		slices.SortFunc(cs, func(a, b span) int { return int(a.Start - b.Start) })
		covered, at := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, at), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

func summarize(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := make(map[string]spanStat)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalUS += float64(s.End-s.Start) / 1e3
		st.SelfUS += float64(self[s.ID]) / 1e3
		out[s.Name] = st
	}
	return out
}

// checkTree verifies that the spans form a forest: every parent exists,
// every child lies inside its parent, and no self time is negative.
func checkTree(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for id, st := range selfTimes(spans) {
		if st < 0 {
			return fmt.Errorf("span %d has negative self time %d", id, st)
		}
	}
	return nil
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Summary  map[string]spanStat `json:"summary"`
	Spans    []span              `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
