package shardrpc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bigindex/internal/obs"
	"bigindex/internal/shard"
)

// ServerOptions configures a shard server.
type ServerOptions struct {
	// Blocks restricts which plan blocks this server answers (nil: all).
	// A request for a block outside the set is refused with
	// ErrCodeBadRequest — defense in depth against a misrouted
	// coordinator; routing itself is the client's membership config.
	Blocks []int
	// BlockSize is the partition target size advertised in the hello
	// (0 = shard.DefaultBlockSize). The client cross-checks it so both
	// sides provably derived the same deterministic partition.
	BlockSize int
	// Logger receives per-connection protocol errors. Nil discards.
	Logger *slog.Logger
}

// Server serves one plan's blocks over the framed TCP protocol. It is
// stateless between requests — the wrapped shard.Local is pure — so an
// abrupt kill loses nothing but the connections.
type Server struct {
	plan   *shard.Plan
	local  *shard.Local
	digest uint64
	opt    ServerOptions
	serves []bool // nil when all blocks are served
	start  time.Time

	// Serve counters for the msgStats probe.
	expands  atomic.Int64
	verifies atomic.Int64
	errs     atomic.Int64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server for plan.
func NewServer(plan *shard.Plan, opt ServerOptions) *Server {
	if opt.BlockSize <= 0 {
		opt.BlockSize = shard.DefaultBlockSize
	}
	if opt.Logger == nil {
		opt.Logger = obs.DiscardLogger()
	}
	s := &Server{
		plan:   plan,
		local:  shard.NewLocal(plan),
		digest: plan.Graph().Digest(),
		opt:    opt,
		start:  time.Now(),
		conns:  map[net.Conn]bool{},
	}
	if opt.Blocks != nil {
		s.serves = make([]bool, plan.NumBlocks())
		for _, b := range opt.Blocks {
			if b >= 0 && b < len(s.serves) {
				s.serves[b] = true
			}
		}
	}
	return s
}

// Hello reports what this server advertises.
func (s *Server) Hello() HelloInfo {
	return HelloInfo{
		Digest:    s.digest,
		Blocks:    s.plan.NumBlocks(),
		BlockSize: s.opt.BlockSize,
		Vertices:  s.plan.Graph().NumVertices(),
	}
}

// Listen binds addr and starts accepting in the background. The returned
// address is concrete (resolves ":0" test listeners).
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ServeListener(ln)
	return ln.Addr(), nil
}

// ServeListener starts accepting from ln in the background — the hook
// tests use to interpose a faultio.FaultListener.
func (s *Server) ServeListener(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every connection, and waits for handlers
// to drain.
func (s *Server) Close() error {
	s.shutdown(false)
	s.wg.Wait()
	return nil
}

// Kill closes the listener and every connection abruptly (SO_LINGER 0,
// so in-flight peers see a reset, not an orderly FIN) and does not wait —
// the closest an in-process test gets to kill -9. Statelessness makes
// this safe at any instant: no request leaves partial state behind.
func (s *Server) Kill() {
	s.shutdown(true)
}

func (s *Server) shutdown(abrupt bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		if abrupt {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
		}
		conn.Close()
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		fr, err := readFrame(r)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.opt.Logger.Debug("shardrpc: connection dropped", "remote", conn.RemoteAddr(), "err", err)
			}
			return
		}
		mt, payload := s.handle(fr)
		if err := writeFrame(w, mt, fr.reqID, payload); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// handle serves one decoded frame. Malformed payloads and digest
// mismatches come back as structured errors — the connection itself is
// still in sync (the frame layer validated it), so it stays open.
func (s *Server) handle(fr frame) (byte, []byte) {
	mt, payload := s.handleMsg(fr)
	if mt == msgErr {
		s.errs.Add(1)
	}
	return mt, payload
}

func (s *Server) handleMsg(fr frame) (byte, []byte) {
	switch fr.msgType {
	case msgHello:
		clientCaps := decodeHelloCaps(fr.payload)
		return msgHelloOK, encodeHelloOKCaps(s.Hello(), localCaps&clientCaps)

	case msgExpand:
		digest, req, tel, err := decodeExpandFull(fr.payload)
		if err != nil {
			return msgErr, encodeErr(ErrCodeBadRequest, err.Error())
		}
		if digest != s.digest {
			return msgErr, encodeErr(ErrCodeStale,
				fmt.Sprintf("graph digest %016x, request planned against %016x", s.digest, digest))
		}
		if err := s.checkSlots(req); err != nil {
			return msgErr, encodeErr(ErrCodeBadRequest, err.Error())
		}
		s.expands.Add(1)
		ctx, sp, led := s.beginCall(tel, "remote:expand")
		resp, err := s.local.Expand(ctx, req)
		if err != nil {
			return msgErr, encodeErr(ErrCodeInternal, err.Error())
		}
		out := encodeExpandOK(resp)
		if sp != nil {
			frontier, local, outbox, expanded := 0, 0, 0, 0
			for i, sl := range req.Slots {
				r := &resp.Slots[i]
				frontier += len(sl.Frontier)
				local += len(r.Local)
				outbox += len(r.Outbox)
				expanded += r.Expanded
			}
			sp.SetAttr("level", req.Level).SetAttr("slots", len(req.Slots)).
				SetAttr("frontier", frontier).SetAttr("local", local).
				SetAttr("outbox", outbox).SetAttr("expanded", expanded)
			led.AddExpanded(int64(expanded))
			out = appendSummary(out, s.endCall(sp, led))
		}
		return msgExpandOK, out

	case msgVerify:
		digest, req, tel, err := decodeVerifyFull(fr.payload)
		if err != nil {
			return msgErr, encodeErr(ErrCodeBadRequest, err.Error())
		}
		if digest != s.digest {
			return msgErr, encodeErr(ErrCodeStale,
				fmt.Sprintf("graph digest %016x, request planned against %016x", s.digest, digest))
		}
		s.verifies.Add(1)
		ctx, sp, led := s.beginCall(tel, "remote:verify")
		resp, err := s.local.Verify(ctx, req)
		if err != nil {
			return msgErr, encodeErr(ErrCodeInternal, err.Error())
		}
		out := encodeVerifyOK(resp)
		if sp != nil {
			sp.SetAttr("roots", len(req.Roots)).SetAttr("dmax", req.DMax).
				SetAttr("verified", resp.Verified).SetAttr("matches", len(resp.Matches))
			led.AddExpanded(int64(resp.Verified))
			out = appendSummary(out, s.endCall(sp, led))
		}
		return msgVerifyOK, out

	case msgStats:
		return msgStatsOK, encodeStatsOK(s.stats())

	default:
		return msgErr, encodeErr(ErrCodeBadRequest, fmt.Sprintf("unexpected message type %d", fr.msgType))
	}
}

// checkSlots refuses a request this server must not expand: a slot whose
// block is out of range or not served here, or whose frontier names a
// vertex outside that block (the block's sub-index has no row for it).
func (s *Server) checkSlots(req *shard.ExpandRequest) error {
	blockOf := s.plan.Partitioning().BlockOf
	for _, sl := range req.Slots {
		if sl.Block < 0 || sl.Block >= s.plan.NumBlocks() {
			return fmt.Errorf("block %d out of range", sl.Block)
		}
		if s.serves != nil && !s.serves[sl.Block] {
			return fmt.Errorf("block %d not served here", sl.Block)
		}
		for _, v := range sl.Frontier {
			if int(v) >= len(blockOf) || blockOf[v] != sl.Block {
				return fmt.Errorf("vertex %d is not in block %d", v, sl.Block)
			}
		}
	}
	return nil
}

// RemoteSummary is the span/ledger report a shard server appends to a
// response when the request carried a sampled telemetry tail: the peer's
// own view of what the call cost, ready for the coordinator to graft.
type RemoteSummary struct {
	Span   *obs.SpanJSON       `json:"span,omitempty"`
	Ledger *obs.LedgerSnapshot `json:"ledger,omitempty"`
}

// beginCall opens the per-call observability scope when the request
// carried a sampled telemetry header: a local trace whose root span and
// ledger ride the context into shard.Local, exactly as a coordinator-side
// call would carry them. Without telemetry everything stays nil and the
// call path is the pre-telemetry one.
func (s *Server) beginCall(tel *Telemetry, name string) (context.Context, *obs.Span, *obs.Ledger) {
	ctx := context.Background()
	if tel == nil || !tel.Sampled {
		return ctx, nil, nil
	}
	sp := obs.NewTrace(name).Root()
	sp.SetAttr("remote_trace_id", tel.TraceID)
	if tel.ParentSpan != "" {
		sp.SetAttr("parent_span", tel.ParentSpan)
	}
	led := obs.NewLedger()
	ctx = obs.ContextWithLedger(obs.ContextWithSpan(ctx, sp), led)
	return ctx, sp, led
}

// endCall closes the per-call scope and renders the summary tail; a
// marshal failure drops the summary, never the answer.
func (s *Server) endCall(sp *obs.Span, led *obs.Ledger) []byte {
	sp.End()
	snap := sp.Trace().Snapshot()
	blob, err := json.Marshal(RemoteSummary{Span: &snap, Ledger: led.Snapshot()})
	if err != nil {
		return nil
	}
	return blob
}

// stats snapshots the server's self-report for the msgStats probe.
func (s *Server) stats() StatsInfo {
	served := s.plan.NumBlocks()
	if s.serves != nil {
		served = 0
		for _, ok := range s.serves {
			if ok {
				served++
			}
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return StatsInfo{
		Digest:       fmt.Sprintf("%016x", s.digest),
		Blocks:       s.plan.NumBlocks(),
		BlocksServed: served,
		Vertices:     s.plan.Graph().NumVertices(),
		UptimeS:      int64(time.Since(s.start).Seconds()),
		Goroutines:   runtime.NumGoroutine(),
		HeapBytes:    mem.HeapAlloc,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Expands:      s.expands.Load(),
		Verifies:     s.verifies.Load(),
		Errors:       s.errs.Load(),
	}
}
