package server

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/wal"
)

// MutatorOptions configures the live mutation service.
type MutatorOptions struct {
	// WAL, when non-nil, receives every accepted batch *before* it is
	// applied: an acknowledged mutation survives kill -9 by construction.
	// Nil runs the service without durability (tests, ephemeral demos).
	WAL *wal.Log
	// Persist writes a durable snapshot of idx whose metadata records seq
	// as the last WAL batch it covers — the compaction step. Nil disables
	// compaction (Compact returns an error, auto-compaction is off).
	Persist func(ctx context.Context, idx *core.Index, seq uint64) error
	// MaxWALBytes triggers automatic compaction after any apply that
	// leaves the log larger than this. 0 disables the size trigger.
	MaxWALBytes int64
	// MaxBatch caps the mutations (vertices + adds + removes) accepted in
	// one batch (0 = 10000). A cap keeps one request from holding the
	// write lock for minutes.
	MaxBatch int
	// Logger receives apply/compact outcomes. Nil discards.
	Logger *slog.Logger
}

// MutationRequest is the POST /admin/edges body. Vertices are added by
// label *name* and must already exist in the dictionary: new vocabulary
// changes the label universe and requires a rebuild, so the dictionary
// concurrent requests read is never mutated.
type MutationRequest struct {
	AddVertices []string       `json:"add_vertices,omitempty"`
	AddEdges    []mutationEdge `json:"add_edges,omitempty"`
	RemoveEdges []mutationEdge `json:"remove_edges,omitempty"`
}

type mutationEdge struct {
	From uint32 `json:"from"`
	To   uint32 `json:"to"`
}

// MutationResult describes one applied batch.
type MutationResult struct {
	Seq       uint64
	Epoch     uint64
	Path      string // "absorbed" (no summary layer changed) or "delta"
	Layers    int
	Elapsed   time.Duration
	Compacted bool // an auto-compaction ran after the apply
}

// MutationHealth is the mutation service's /stats block.
type MutationHealth struct {
	Seq       uint64
	WALBytes  int64
	LastApply time.Time // zero when no batch has been applied this run
}

// ErrBadMutation marks request-validation failures (HTTP 400).
var ErrBadMutation = errors.New("server: invalid mutation batch")

// ErrWALAppend marks durability failures: the batch was NOT accepted and
// must be retried (HTTP 503).
var ErrWALAppend = errors.New("server: mutation could not be made durable")

// Mutator is the write path: it validates mutation batches against the
// served index, makes them durable in the WAL, and applies them through
// core.Applied, with an atomic index swap and epoch bump per batch.
// Applied re-signs only what a batch reaches at each layer: a batch that
// moves no vertex to another block is "absorbed" (every summary layer is
// reused as it is), any other is a "delta". A batch whose maintenance
// fails is rolled back out of the WAL and reported as an error. One batch
// applies at a time; queries never block (they read the atomic index
// pointer).
type Mutator struct {
	s   *Server
	opt MutatorOptions

	mu        sync.Mutex    // serializes Apply and Compact
	seq       atomic.Uint64 // last applied batch sequence (atomic: read by stats without mu)
	lastApply atomic.Int64  // unix nanos of the last successful apply

	applyTotal  *obs.CounterVec
	applySec    *obs.Histogram
	walAppends  *obs.Counter
	compactions *obs.CounterVec
}

// NewMutator wires a mutation service into s: /admin/edges and
// /admin/compact begin delegating to it, /stats gains a mutation block,
// and the mutation metrics register on the server's registry. startSeq is
// the sequence number of the last batch already folded into the served
// index (snapshot WALSeq + replayed tail); new batches continue from it.
func NewMutator(s *Server, startSeq uint64, opt MutatorOptions) *Mutator {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 10000
	}
	if opt.Logger == nil {
		opt.Logger = obs.DiscardLogger()
	}
	m := &Mutator{s: s, opt: opt}
	m.seq.Store(startSeq)
	m.applyTotal = s.reg.CounterVec("bigindex_mutation_total",
		"Mutation batches by outcome: absorbed (every summary layer reused), delta (some summary layer changed), invalid, wal_error, error.",
		"outcome")
	m.applySec = s.reg.Histogram("bigindex_mutation_seconds",
		"End-to-end mutation batch apply latency in seconds (WAL append + maintenance + swap).",
		nil)
	m.walAppends = s.reg.Counter("bigindex_wal_appends_total",
		"Mutation batches made durable in the write-ahead log.")
	m.compactions = s.reg.CounterVec("bigindex_compaction_total",
		"WAL compactions by outcome (success, persist_error, reset_error).", "outcome")
	if opt.WAL != nil {
		s.reg.GaugeFunc("bigindex_wal_bytes",
			"Current write-ahead log size in bytes (header included).",
			func() float64 { return float64(opt.WAL.Size()) })
	}
	s.SetMutator(m)
	return m
}

// Health reports the mutation service's current state.
func (m *Mutator) Health() MutationHealth {
	h := MutationHealth{Seq: m.seq.Load()}
	if m.opt.WAL != nil {
		h.WALBytes = m.opt.WAL.Size()
	}
	if ns := m.lastApply.Load(); ns != 0 {
		h.LastApply = time.Unix(0, ns)
	}
	return h
}

// Apply runs one mutation batch end to end: validate against the served
// index, append to the WAL (durability point — only after the fsync
// returns is the batch acknowledged), apply via core.Applied, swap
// atomically, bump the epoch.
func (m *Mutator) Apply(ctx context.Context, req MutationRequest) (MutationResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()

	cur := m.s.Index()
	d, err := validateMutation(cur.Data(), req, m.opt.MaxBatch)
	if err != nil {
		m.applyTotal.With("invalid").Inc()
		return MutationResult{}, err
	}

	seq := m.seq.Load() + 1
	var mark wal.Mark
	if m.opt.WAL != nil {
		mark = m.opt.WAL.Mark()
		if err := m.opt.WAL.Append(wal.Batch{
			Seq:         seq,
			AddVertices: d.AddVertices,
			AddEdges:    d.AddEdges,
			RemoveEdges: d.RemoveEdges,
		}); err != nil {
			m.applyTotal.With("wal_error").Inc()
			m.opt.Logger.Error("mutation WAL append failed; batch rejected", "seq", seq, "err", err)
			return MutationResult{}, fmt.Errorf("%w: %v", ErrWALAppend, err)
		}
		m.walAppends.Inc()
	}

	next, rep, err := cur.Applied(d, core.DeltaOptions{})
	if err != nil {
		// The record is durable but the batch is NOT acknowledged: roll the
		// WAL back so boot replay cannot resurrect a batch the client was
		// told failed. If even the rollback fails the log wedges itself and
		// further mutations get 503s — divergence is never silent.
		if m.opt.WAL != nil {
			if rbErr := m.opt.WAL.Rollback(mark); rbErr != nil {
				m.opt.Logger.Error("WAL rollback after failed apply ALSO failed; mutation log wedged",
					"seq", seq, "apply_err", err, "rollback_err", rbErr)
			}
		}
		m.applyTotal.With("error").Inc()
		return MutationResult{}, fmt.Errorf("server: mutation maintenance: %w", err)
	}
	m.s.SwapIndex(next)

	res := MutationResult{Seq: seq, Epoch: next.Epoch(), Path: "delta", Layers: next.NumLayers()}
	if rep.Absorbed {
		res.Path = "absorbed"
	}
	m.seq.Store(seq)
	m.lastApply.Store(time.Now().UnixNano())
	res.Elapsed = time.Since(start)
	m.applyTotal.With(res.Path).Inc()
	m.applySec.Observe(res.Elapsed.Seconds())
	m.opt.Logger.Info("mutation applied",
		"seq", seq, "path", res.Path, "epoch", res.Epoch,
		"add_vertices", len(d.AddVertices), "add_edges", len(d.AddEdges), "remove_edges", len(d.RemoveEdges),
		"changed_layers", rep.RecomputedLayers, "fallback_layers", rep.FallbackLayers,
		"elapsed_ms", res.Elapsed.Milliseconds())

	if m.opt.WAL != nil && m.opt.MaxWALBytes > 0 && m.opt.WAL.Size() > m.opt.MaxWALBytes {
		if _, err := m.compactLocked(ctx); err != nil {
			// Auto-compaction failure is not an apply failure: the batch is
			// durable and serving; the log just stays long until the next
			// trigger or a manual /admin/compact succeeds.
			m.opt.Logger.Warn("auto-compaction failed; WAL keeps growing", "err", err)
		} else {
			res.Compacted = true
		}
	}
	return res, nil
}

// CompactResult describes one compaction.
type CompactResult struct {
	Seq      uint64 // last batch covered by the persisted snapshot
	WALBytes int64  // log size after truncation
	Elapsed  time.Duration
}

// Compact persists a snapshot covering every applied batch, then
// truncates the WAL. The order is the crash-safety argument: a crash
// after the snapshot but before the truncate leaves records whose seq the
// snapshot already covers — boot replay skips them — and a crash before
// the snapshot leaves everything as it was.
func (m *Mutator) Compact(ctx context.Context) (CompactResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compactLocked(ctx)
}

func (m *Mutator) compactLocked(ctx context.Context) (CompactResult, error) {
	if m.opt.WAL == nil || m.opt.Persist == nil {
		return CompactResult{}, fmt.Errorf("server: compaction is not configured (need a WAL and a snapshot path)")
	}
	start := time.Now()
	seq := m.seq.Load()
	if err := m.opt.Persist(ctx, m.s.Index(), seq); err != nil {
		m.compactions.With("persist_error").Inc()
		return CompactResult{}, fmt.Errorf("server: compaction snapshot: %w", err)
	}
	if err := m.opt.WAL.Reset(); err != nil {
		m.compactions.With("reset_error").Inc()
		return CompactResult{}, fmt.Errorf("server: compaction truncate: %w", err)
	}
	m.compactions.With("success").Inc()
	res := CompactResult{Seq: seq, WALBytes: m.opt.WAL.Size(), Elapsed: time.Since(start)}
	m.opt.Logger.Info("WAL compacted", "covered_seq", seq, "elapsed_ms", res.Elapsed.Milliseconds())
	return res, nil
}

// validateMutation is the strict admission check, run against the exact
// index version the batch will apply to. Strictness here is what licenses
// the lenient replay semantics everywhere else: a record only enters the
// WAL after passing, so replaying it through graph.Patch cannot fail.
func validateMutation(g *graph.Graph, req MutationRequest, maxBatch int) (core.Delta, error) {
	var d core.Delta
	total := len(req.AddVertices) + len(req.AddEdges) + len(req.RemoveEdges)
	if total == 0 {
		return d, fmt.Errorf("%w: empty batch", ErrBadMutation)
	}
	if total > maxBatch {
		return d, fmt.Errorf("%w: %d mutations exceed the per-batch cap %d", ErrBadMutation, total, maxBatch)
	}
	dict := g.Dict()
	for i, name := range req.AddVertices {
		l := dict.Lookup(name)
		if l == graph.NoLabel {
			return d, fmt.Errorf("%w: add_vertices[%d]: label %q is not in the dictionary (new vocabulary requires a rebuild)",
				ErrBadMutation, i, name)
		}
		d.AddVertices = append(d.AddVertices, l)
	}
	n := graph.V(g.NumVertices())
	limit := n + graph.V(len(req.AddVertices))
	seenAdd := make(map[graph.Edge]bool, len(req.AddEdges))
	for i, e := range req.AddEdges {
		ge := graph.Edge{From: graph.V(e.From), To: graph.V(e.To)}
		if ge.From >= limit || ge.To >= limit {
			return d, fmt.Errorf("%w: add_edges[%d]: endpoint out of range (graph has %d vertices, batch adds %d)",
				ErrBadMutation, i, n, len(req.AddVertices))
		}
		if ge.From < n && ge.To < n && g.HasEdge(ge.From, ge.To) {
			return d, fmt.Errorf("%w: add_edges[%d]: edge (%d,%d) already exists", ErrBadMutation, i, ge.From, ge.To)
		}
		if seenAdd[ge] {
			return d, fmt.Errorf("%w: add_edges[%d]: duplicate edge (%d,%d) in batch", ErrBadMutation, i, ge.From, ge.To)
		}
		seenAdd[ge] = true
		d.AddEdges = append(d.AddEdges, ge)
	}
	seenRm := make(map[graph.Edge]bool, len(req.RemoveEdges))
	for i, e := range req.RemoveEdges {
		ge := graph.Edge{From: graph.V(e.From), To: graph.V(e.To)}
		if ge.From >= n || ge.To >= n {
			return d, fmt.Errorf("%w: remove_edges[%d]: endpoint out of range (graph has %d vertices)", ErrBadMutation, i, n)
		}
		if !g.HasEdge(ge.From, ge.To) {
			return d, fmt.Errorf("%w: remove_edges[%d]: edge (%d,%d) does not exist", ErrBadMutation, i, ge.From, ge.To)
		}
		if seenRm[ge] {
			return d, fmt.Errorf("%w: remove_edges[%d]: duplicate edge (%d,%d) in batch", ErrBadMutation, i, ge.From, ge.To)
		}
		if seenAdd[ge] {
			return d, fmt.Errorf("%w: remove_edges[%d]: edge (%d,%d) both added and removed in one batch", ErrBadMutation, i, ge.From, ge.To)
		}
		seenRm[ge] = true
		d.RemoveEdges = append(d.RemoveEdges, ge)
	}
	return d, nil
}

// adminOnly gates an admin handler: POST-only (405 + Allow otherwise) and,
// when -admin-token is set, a constant-time shared-secret check via
// "Authorization: Bearer <token>" or "X-Admin-Token: <token>". The hashes
// are compared (not the strings) so the comparison is constant-time even
// across length mismatches.
func (s *Server) adminOnly(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("admin endpoints require POST"))
			return
		}
		if tok := s.opt.AdminToken; tok != "" {
			got := r.Header.Get("X-Admin-Token")
			if got == "" {
				if ah := r.Header.Get("Authorization"); strings.HasPrefix(ah, "Bearer ") {
					got = strings.TrimPrefix(ah, "Bearer ")
				}
			}
			want := sha256.Sum256([]byte(tok))
			have := sha256.Sum256([]byte(got))
			if subtle.ConstantTimeCompare(want[:], have[:]) != 1 {
				httpError(w, http.StatusUnauthorized, fmt.Errorf("missing or invalid admin token"))
				return
			}
		}
		next(w, r)
	}
}

// handleAdminEdges serves POST /admin/edges — the batch mutation API.
func (s *Server) handleAdminEdges(w http.ResponseWriter, r *http.Request) {
	mut := s.mutator.Load()
	if mut == nil {
		httpError(w, http.StatusNotImplemented, fmt.Errorf("mutation is not configured"))
		return
	}
	var req MutationRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding mutation batch: %w", err))
		return
	}
	res, err := mut.Apply(r.Context(), req)
	if err != nil {
		switch {
		case errors.Is(err, ErrBadMutation):
			httpError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrWALAppend):
			httpError(w, http.StatusServiceUnavailable, err)
		default:
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, struct {
		Status    string `json:"status"`
		Seq       uint64 `json:"seq"`
		Epoch     uint64 `json:"epoch"`
		Path      string `json:"path"`
		Layers    int    `json:"layers"`
		Elapsed   string `json:"elapsed"`
		Compacted bool   `json:"compacted,omitempty"`
	}{"applied", res.Seq, res.Epoch, res.Path, res.Layers,
		res.Elapsed.Round(time.Microsecond).String(), res.Compacted})
}

// handleAdminCompact serves POST /admin/compact — snapshot + WAL truncate.
func (s *Server) handleAdminCompact(w http.ResponseWriter, r *http.Request) {
	mut := s.mutator.Load()
	if mut == nil {
		httpError(w, http.StatusNotImplemented, fmt.Errorf("mutation is not configured"))
		return
	}
	res, err := mut.Compact(r.Context())
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, struct {
		Status   string `json:"status"`
		Seq      uint64 `json:"covered_seq"`
		WALBytes int64  `json:"wal_bytes"`
		Elapsed  string `json:"elapsed"`
	}{"compacted", res.Seq, res.WALBytes, res.Elapsed.Round(time.Microsecond).String()})
}
