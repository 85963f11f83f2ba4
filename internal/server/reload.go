package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/retry"
)

// ReloaderOptions configures hot reloading of the served index.
type ReloaderOptions struct {
	// Source produces the current version of the data graph (re-read from
	// wherever the deployment gets it). It may return a graph on any
	// dictionary; the reloader rebases it onto the live index's dictionary
	// by label name, so the swap never mutates the dictionary concurrent
	// requests are reading. A label unknown to the live dictionary is a
	// reload failure — new vocabulary requires a rebuild.
	Source func(context.Context) (*graph.Graph, error)
	// AfterSwap runs once the new index is serving (persist a snapshot,
	// re-warm the query cache). Its failure is reported and counted but is
	// not a reload failure: the process is already serving fresh data, so
	// retrying the whole reload would churn for nothing.
	AfterSwap func(context.Context, *core.Index) error
	// MinBackoff/MaxBackoff/Factor shape the retry schedule after a failed
	// reload: MinBackoff, then ×Factor per consecutive failure, capped at
	// MaxBackoff (defaults 1s, 5m, ×2).
	MinBackoff time.Duration
	MaxBackoff time.Duration
	Factor     float64
	// Jitter spreads retries by up to this fraction of the backoff
	// (default 0.2), so a fleet reloading from one failed source does not
	// retry in lockstep.
	Jitter float64
	// FailThreshold opens the circuit after this many consecutive
	// failures (default 5): the server keeps serving the last good index,
	// /readyz stays 200, /stats and bigindex_index_staleness_seconds
	// report the staleness, and retries continue at MaxBackoff.
	FailThreshold int64
	// Seed fixes the jitter stream (tests); 0 derives from the clock.
	Seed int64
	// Logger receives reload outcomes. Nil discards.
	Logger *slog.Logger
}

// ReloadHealth is the reloader's externally visible state (/stats).
type ReloadHealth struct {
	LastSuccess         time.Time
	Staleness           time.Duration
	ConsecutiveFailures int64
	CircuitOpen         bool
}

// ReloadResult describes one successful reload.
type ReloadResult struct {
	Epoch   uint64
	Layers  int
	Elapsed time.Duration
	// PersistErr is a non-fatal AfterSwap failure (see ReloaderOptions).
	PersistErr error
}

// Reloader hot-reloads a Server's index from a data source: on demand
// (/admin/reload, SIGHUP via Trigger) it re-reads the graph, rebuilds the
// hierarchy with the stored configurations (core.Refreshed — Sec. 3.2's
// data-update maintenance), and swaps the result in atomically. Failures
// never disturb the serving path: the last good index keeps answering
// while Run retries with exponential backoff and jitter, and a run of
// failures opens a circuit that is visible in /stats and metrics but
// keeps readiness green — stale answers beat no answers. The mutation
// service applies batches through core.Applied under the same lock, so a
// reload and a mutation never interleave; it has no path of its own
// through the reloader.
type Reloader struct {
	s   *Server
	opt ReloaderOptions

	mu      sync.Mutex // serializes reload attempts (manual vs background) and mutations
	trigger chan struct{}

	lastOK  atomic.Int64   // unix nanos of the last success (boot counts)
	breaker *retry.Breaker // consecutive-failure circuit (shared retry shape)

	total *obs.CounterVec
}

// NewReloader wires a reloader into s: /admin/reload and /stats begin
// reporting through it, bigindex_reload_total and
// bigindex_index_staleness_seconds register on the server's metrics
// registry, and the boot instant counts as the first "reload" so
// staleness is measured from the index the process started with.
func NewReloader(s *Server, opt ReloaderOptions) *Reloader {
	if opt.MinBackoff <= 0 {
		opt.MinBackoff = time.Second
	}
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = 5 * time.Minute
	}
	if opt.Factor <= 1 {
		opt.Factor = 2
	}
	if opt.Jitter < 0 {
		opt.Jitter = 0
	} else if opt.Jitter == 0 {
		opt.Jitter = 0.2
	}
	if opt.FailThreshold <= 0 {
		opt.FailThreshold = 5
	}
	if opt.Logger == nil {
		opt.Logger = obs.DiscardLogger()
	}
	r := &Reloader{
		s:       s,
		opt:     opt,
		trigger: make(chan struct{}, 1),
		breaker: retry.NewBreaker(retry.BreakerOptions{Threshold: opt.FailThreshold}),
	}
	r.lastOK.Store(time.Now().UnixNano())
	r.total = s.reg.CounterVec("bigindex_reload_total",
		"Index reload attempts by outcome (success, source, rebase, refresh, persist).",
		"outcome")
	s.reg.GaugeFunc("bigindex_index_staleness_seconds",
		"Seconds since the served index was last successfully built or reloaded.",
		func() float64 { return time.Since(time.Unix(0, r.lastOK.Load())).Seconds() })
	s.SetReloader(r)
	return r
}

// Health reports the reloader's current state.
func (r *Reloader) Health() ReloadHealth {
	last := time.Unix(0, r.lastOK.Load())
	return ReloadHealth{
		LastSuccess:         last,
		Staleness:           time.Since(last),
		ConsecutiveFailures: r.breaker.Fails(),
		CircuitOpen:         r.breaker.State() != retry.Closed,
	}
}

// MarkFresh records "the served index was just rebuilt/updated now" —
// the mutation service calls it after a successful delta apply so
// bigindex_index_staleness_seconds and /stats report a mutated index as
// fresh, not as "not reloaded since boot". It also closes the circuit:
// a successful write proves the maintenance pipeline is healthy.
func (r *Reloader) MarkFresh() {
	r.lastOK.Store(time.Now().UnixNano())
	r.breaker.Reset()
}

// Trigger requests an asynchronous reload from the Run loop (the SIGHUP
// path). It never blocks; a trigger while one is already pending is
// coalesced with it.
func (r *Reloader) Trigger() {
	select {
	case r.trigger <- struct{}{}:
	default:
	}
}

// Reload performs one synchronous reload attempt: Source → rebase onto
// the live dictionary → Refreshed → atomic swap → AfterSwap. Attempts are
// serialized; a failure leaves the serving index untouched and counts
// toward the circuit threshold.
func (r *Reloader) Reload(ctx context.Context) (ReloadResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	start := time.Now()
	cur := r.s.Index()
	g, err := r.opt.Source(ctx)
	if err != nil {
		return ReloadResult{}, r.fail("source", err)
	}
	g, err = g.Rebase(cur.Data().Dict())
	if err != nil {
		return ReloadResult{}, r.fail("rebase", err)
	}
	next, err := cur.Refreshed(g)
	if err != nil {
		return ReloadResult{}, r.fail("refresh", err)
	}
	r.s.SwapIndex(next)
	r.lastOK.Store(time.Now().UnixNano())
	r.breaker.Reset()
	r.total.With("success").Inc()

	res := ReloadResult{Epoch: next.Epoch(), Layers: next.NumLayers(), Elapsed: time.Since(start)}
	if r.opt.AfterSwap != nil {
		if err := r.opt.AfterSwap(ctx, next); err != nil {
			r.total.With("persist").Inc()
			r.opt.Logger.Warn("post-reload persist/warm failed; serving fresh index anyway", "err", err)
			res.PersistErr = err
		}
	}
	r.opt.Logger.Info("index reloaded",
		"epoch", res.Epoch,
		"layers", res.Layers,
		"vertices", next.Data().NumVertices(),
		"edges", next.Data().NumEdges(),
		"elapsed_ms", res.Elapsed.Milliseconds())
	return res, nil
}

func (r *Reloader) fail(outcome string, err error) error {
	opened := r.breaker.Failure()
	n := r.breaker.Fails()
	r.total.With(outcome).Inc()
	if opened {
		r.opt.Logger.Error("reload circuit opened; serving last good index",
			"consecutive_failures", n, "err", err)
	}
	r.opt.Logger.Warn("reload failed; last good index keeps serving",
		"stage", outcome, "consecutive_failures", n, "err", err)
	return fmt.Errorf("reload %s: %w", outcome, err)
}

// Run is the background reload loop: it sleeps until triggered, attempts
// a reload, and on failure retries on an exponential backoff with jitter
// (resetting on success or on a fresh trigger's success). It returns when
// ctx is cancelled. Run never touches the serving path directly — all it
// does between attempts is wait.
func (r *Reloader) Run(ctx context.Context) {
	bo := retry.New(retry.BackoffOptions{
		Min:    r.opt.MinBackoff,
		Max:    r.opt.MaxBackoff,
		Factor: r.opt.Factor,
		Jitter: r.opt.Jitter,
		Seed:   r.opt.Seed,
	})
	attempt := 0
	var wait <-chan time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.trigger:
			attempt = 0 // a fresh request restarts the schedule
		case <-wait:
		}
		wait = nil
		if _, err := r.Reload(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			wait = time.After(bo.Delay(attempt))
			attempt++
		} else {
			attempt = 0
		}
	}
}

// handleAdminReload serves POST /admin/reload: a synchronous reload whose
// response reports the new epoch (or the failure). Not wired = 501, so
// read-only deployments keep a closed admin surface. Method enforcement
// and the shared-secret gate live in the adminOnly wrapper (server.go).
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	rl := s.reloader.Load()
	if rl == nil {
		httpError(w, http.StatusNotImplemented, fmt.Errorf("reload is not configured"))
		return
	}
	res, err := rl.Reload(r.Context())
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	out := struct {
		Status     string `json:"status"`
		Epoch      uint64 `json:"epoch"`
		Layers     int    `json:"layers"`
		Elapsed    string `json:"elapsed"`
		PersistErr string `json:"persist_error,omitempty"`
	}{"reloaded", res.Epoch, res.Layers, res.Elapsed.Round(time.Microsecond).String(), ""}
	if res.PersistErr != nil {
		out.PersistErr = res.PersistErr.Error()
	}
	writeJSON(w, out)
}
