package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"
)

// statusClientClosedRequest is the (nginx-convention) status recorded for
// requests whose client went away mid-evaluation. Nothing reads the
// response — it exists so metrics and logs distinguish "client hung up"
// from real 5xx failures.
const statusClientClosedRequest = 499

// errShed marks a query the load-shedding gate turned away.
var errShed = errors.New("query capacity exhausted")

// admit is the load-shedding gate in front of /query's evaluation: at
// most MaxInFlight queries evaluate concurrently, an excess query waits up
// to ShedWait for a slot, and past that it is shed (errShed, answered 429
// + Retry-After) so clients back off instead of piling goroutines onto an
// overloaded process. A client that goes away while waiting gets
// context.Canceled. An admitted query calls release when it is done. Only
// /query sits behind the gate — health, metrics, and stats must stay
// responsive exactly when the process is saturated.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if s.sem == nil {
		return func() {}, nil
	}
	acquired := false
	select {
	case s.sem <- struct{}{}:
		acquired = true
	default:
	}
	if !acquired && s.opt.ShedWait > 0 {
		t := time.NewTimer(s.opt.ShedWait)
		select {
		case s.sem <- struct{}{}:
			acquired = true
		case <-ctx.Done():
		case <-t.C:
		}
		t.Stop()
	}
	if !acquired {
		if ctx.Err() != nil {
			return nil, context.Canceled
		}
		return nil, fmt.Errorf("%w (%d in flight); retry shortly", errShed, cap(s.sem))
	}
	s.inflightQ.Add(1)
	return func() {
		s.inflightQ.Add(-1)
		<-s.sem
	}, nil
}

// recoverPanics converts a handler panic into a 500 with a stack-tagged
// log line and a counter increment, keeping the serving goroutine pool
// intact: one poisoned query must not take the process down. The
// http.ErrAbortHandler sentinel is re-raised — that is net/http's own
// "abort this response" protocol, not a bug.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ww := &writeTracker{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.panics.Inc()
			s.opt.Logger.Error("panic serving request",
				slog.String("path", r.URL.Path),
				slog.Any("panic", p),
				slog.String("stack", string(debug.Stack())))
			if !ww.wrote {
				httpError(ww, http.StatusInternalServerError, fmt.Errorf("internal server error"))
			}
		}()
		next.ServeHTTP(ww, r)
	})
}

// writeTracker remembers whether anything was written so the panic handler
// knows if a 500 status can still be sent.
type writeTracker struct {
	http.ResponseWriter
	wrote bool
}

func (t *writeTracker) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *writeTracker) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

// SetDraining flips the /readyz readiness signal. The daemon sets it at
// the start of graceful shutdown so load balancers stop routing new
// traffic while in-flight queries finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is in its shutdown drain.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	// Multi-process mode: not-ready only when coverage would be zero —
	// every peer unreachable or breaker-open, so a query started now could
	// not reach a single block. Partial peer loss keeps the server ready:
	// it still answers (degraded, coverage-annotated), and flapping
	// /readyz on one lost replica would amplify the outage by draining
	// coordinators that can still serve most of the graph.
	if c := s.opt.ShardClient; c != nil && c.CoverageFloor() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no shard peers reachable (coverage 0)")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
