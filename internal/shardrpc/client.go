package shardrpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bigindex/internal/obs"
	"bigindex/internal/retry"
	"bigindex/internal/shard"
)

// Client resilience defaults.
const (
	defaultDialTimeout    = 500 * time.Millisecond
	defaultCallTimeout    = 2 * time.Second
	defaultMinAttempt     = 25 * time.Millisecond
	defaultMaxAttempts    = 4
	defaultBackoffMin     = 10 * time.Millisecond
	defaultBackoffMax     = 250 * time.Millisecond
	defaultBreakThreshold = 3
	defaultBreakCooldown  = time.Second
	defaultHedgeDelay     = 50 * time.Millisecond // until p99 samples exist
	minHedgeDelay         = 2 * time.Millisecond
	maxHedgeDelay         = 200 * time.Millisecond
	latWindowSize         = 128
)

// Metrics is the client-side instrument set.
type Metrics struct {
	Retries *obs.Counter      // attempts beyond the first
	Hedges  *obs.CounterVec   // outcome: won|lost
	Seconds *obs.HistogramVec // op

	// Per-peer telemetry: the series that say "which peer". A fleet-wide
	// count is their sum by the remaining labels (attempts by op and
	// outcome, breaker opens by to="open"), so none is kept separately.
	PeerCalls          *obs.CounterVec   // peer, op, outcome: ok|remote_error|network_error
	PeerSeconds        *obs.HistogramVec // peer; exemplars carry trace IDs
	PeerBytes          *obs.CounterVec   // peer, dir: sent|recv
	BreakerTransitions *obs.CounterVec   // peer, to: open|half-open|closed
}

// NewMetrics registers the bigindex_shardrpc_* metrics on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Retries: reg.Counter("bigindex_shardrpc_retries_total",
			"Shard RPC attempts beyond the first for a call."),
		Hedges: reg.CounterVec("bigindex_shardrpc_hedges_total",
			"Hedged shard RPC attempts by outcome.", "outcome"),
		Seconds: reg.HistogramVec("bigindex_shardrpc_call_seconds",
			"Shard RPC attempt latency by operation.", nil, "op"),
		PeerCalls: reg.CounterVec("bigindex_shardrpc_peer_calls_total",
			"Shard RPC attempts by peer, operation, and outcome.", "peer", "op", "outcome"),
		PeerSeconds: reg.HistogramVec("bigindex_shardrpc_peer_seconds",
			"Shard RPC attempt latency by peer, with trace-ID exemplars.", nil, "peer"),
		PeerBytes: reg.CounterVec("bigindex_shardrpc_peer_bytes_total",
			"Shard RPC bytes on the wire by peer and direction (frame overhead included).", "peer", "dir"),
		BreakerTransitions: reg.CounterVec("bigindex_shardrpc_breaker_transitions_total",
			"Per-peer circuit breaker state transitions by destination state.", "peer", "to"),
	}
}

// ClientOptions configures a Client. Zero values take the defaults above.
type ClientOptions struct {
	Peers []Peer
	// BlockSize is the partition size the coordinator plans with; peers
	// advertising a different one are treated as not serving the plan.
	BlockSize int

	DialTimeout time.Duration
	// CallTimeout bounds a whole call (all attempts) when the context
	// carries no deadline of its own.
	CallTimeout time.Duration
	// MinAttemptTimeout floors the per-attempt slice carved from the
	// remaining budget, so many retries cannot starve each attempt below
	// a useful deadline.
	MinAttemptTimeout time.Duration
	// MaxAttempts caps attempts per call (first try included). Raised to
	// 2×len(peers) for the block when smaller, so every replica gets a
	// second chance before the call degrades.
	MaxAttempts int

	Backoff          retry.BackoffOptions
	BreakerThreshold int64
	BreakerCooldown  time.Duration

	// Hedge fires a second attempt at a different replica when the first
	// is slower than the observed p99 — tail latency insurance, sound
	// because requests are pure.
	Hedge bool
	// HedgeDelay overrides the p99-derived hedge delay (0: derive).
	HedgeDelay time.Duration

	// TelemetrySample is the head-sampling probability for distributed
	// tracing: a query whose trace hashes under it carries a telemetry
	// header on every shard RPC (to peers that negotiated capTelemetry),
	// and the peers' span/ledger summaries are stitched back into the
	// query's trace. 0 disables (the default); answers are byte-identical
	// either way. The decision is a deterministic hash of the trace ID so
	// every call of one query agrees.
	TelemetrySample float64

	// Dial replaces net.DialTimeout — the fault-injection hook.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	Metrics *Metrics
	Logger  *slog.Logger
}

// PeerHealth is one peer's snapshot for /stats and /readyz.
type PeerHealth struct {
	Addr    string `json:"addr"`
	Blocks  string `json:"blocks"`
	State   string `json:"state"` // healthy | degraded | open-breaker
	Fails   int64  `json:"fails"`
	Calls   int64  `json:"calls"`
	LastErr string `json:"last_error,omitempty"`
}

// Client fans shard rounds out to replica peers, surviving slow, dead,
// lying, and half-open networks: per-attempt deadlines carved from the
// caller's budget, retries with full-jitter backoff, failover across
// replicas, optional hedging, and a circuit breaker per peer.
type Client struct {
	opt   ClientOptions
	peers []*peer
	rr    atomic.Uint64 // round-robin cursor, decorrelates replica choice
	lat   latWindow
	bo    *retry.Backoff // shared by every call; safe for concurrent use
	// knownBlocks is the block count learned from hellos, for
	// CoverageFloor before any plan is bound.
	knownBlocks atomic.Int64
	closed      atomic.Bool
}

// NewClient builds a client over the configured peers.
func NewClient(opt ClientOptions) *Client {
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = defaultDialTimeout
	}
	if opt.CallTimeout <= 0 {
		opt.CallTimeout = defaultCallTimeout
	}
	if opt.MinAttemptTimeout <= 0 {
		opt.MinAttemptTimeout = defaultMinAttempt
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = defaultMaxAttempts
	}
	if opt.Backoff.Min <= 0 {
		opt.Backoff.Min = defaultBackoffMin
	}
	if opt.Backoff.Max <= 0 {
		opt.Backoff.Max = defaultBackoffMax
	}
	if opt.BreakerThreshold <= 0 {
		opt.BreakerThreshold = defaultBreakThreshold
	}
	if opt.BreakerCooldown <= 0 {
		opt.BreakerCooldown = defaultBreakCooldown
	}
	if opt.BlockSize <= 0 {
		opt.BlockSize = shard.DefaultBlockSize
	}
	if opt.Dial == nil {
		opt.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if opt.Logger == nil {
		opt.Logger = obs.DiscardLogger()
	}
	c := &Client{opt: opt, bo: retry.New(opt.Backoff)}
	for _, p := range opt.Peers {
		c.peers = append(c.peers, &peer{
			addr: p.Addr,
			spec: p.Spec,
			breaker: retry.NewBreaker(retry.BreakerOptions{
				Threshold: opt.BreakerThreshold,
				Cooldown:  opt.BreakerCooldown,
			}),
		})
	}
	return c
}

// Peers reports the configured peer count.
func (c *Client) Peers() int { return len(c.peers) }

// Close drops all pooled connections. In-flight attempts finish on their
// own deadlines.
func (c *Client) Close() {
	c.closed.Store(true)
	for _, p := range c.peers {
		p.closeIdle()
	}
}

// --- peer state ---

type peer struct {
	addr    string
	spec    BlockSpec
	breaker *retry.Breaker

	mu   sync.Mutex
	idle []*pconn

	hello atomic.Pointer[HelloInfo] // cached, cleared on transport error
	// caps is the capability set negotiated in the last hello; cleared
	// with the hello cache so a restarted peer renegotiates from scratch.
	caps  atomic.Uint32
	calls atomic.Int64

	errMu   sync.Mutex
	lastErr string
}

// closeIdle closes and forgets the peer's pooled connections.
func (p *peer) closeIdle() {
	p.mu.Lock()
	for _, pc := range p.idle {
		pc.conn.Close()
	}
	p.idle = nil
	p.mu.Unlock()
}

func (p *peer) noteErr(err error) {
	p.errMu.Lock()
	p.lastErr = err.Error()
	p.errMu.Unlock()
}

func (p *peer) lastError() string {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.lastErr
}

// pconn is one pooled connection with its per-connection reqID sequence.
type pconn struct {
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	nextID uint64
}

func (c *Client) getConn(p *peer, timeout time.Duration) (*pconn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return pc, nil
	}
	p.mu.Unlock()
	if timeout > c.opt.DialTimeout {
		timeout = c.opt.DialTimeout
	}
	conn, err := c.opt.Dial(p.addr, timeout)
	if err != nil {
		return nil, err
	}
	return &pconn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), nextID: 1}, nil
}

// putConn pools a healthy connection for the next call to p. Every one is
// kept, so a peer's pool settles at the peak number of concurrent calls
// to it and steady load dials nothing.
func (c *Client) putConn(p *peer, pc *pconn) {
	pc.conn.SetDeadline(time.Time{})
	p.mu.Lock()
	if !c.closed.Load() {
		p.idle = append(p.idle, pc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	pc.conn.Close()
}

// --- single attempt ---

type attemptResult struct {
	payload []byte
	err     error
	peer    *peer
}

// frameOverhead is the fixed per-frame wire cost beyond the payload:
// length prefix (4) + type (1) + reqID (8) + CRC (4). Used for the
// per-peer byte counters, which measure what actually crossed the wire.
const frameOverhead = 17

func (c *Client) noteBytes(p *peer, dir string, n int) {
	if m := c.opt.Metrics; m != nil {
		m.PeerBytes.With(p.addr, dir).Add(int64(frameOverhead + n))
	}
}

// attempt performs one request/response exchange against p within
// timeout. The deadline rides on the socket, so a black-holed peer cannot
// hold the attempt past its slice.
func (c *Client) attempt(p *peer, mt byte, payload []byte, wantType byte, timeout time.Duration) ([]byte, error) {
	pc, err := c.getConn(p, timeout)
	if err != nil {
		return nil, err
	}
	reqID := pc.nextID
	pc.nextID++
	pc.conn.SetDeadline(time.Now().Add(timeout))
	if err := writeFrame(pc.w, mt, reqID, payload); err != nil {
		pc.conn.Close()
		return nil, err
	}
	c.noteBytes(p, "sent", len(payload))
	if err := pc.w.Flush(); err != nil {
		pc.conn.Close()
		return nil, err
	}
	for {
		fr, err := readFrame(pc.r)
		if err != nil {
			pc.conn.Close()
			return nil, err
		}
		c.noteBytes(p, "recv", len(fr.payload))
		if fr.reqID < reqID {
			continue // duplicate of an older response: drop the frame
		}
		if fr.reqID > reqID {
			pc.conn.Close()
			return nil, fmt.Errorf("shardrpc: response for request %d, awaiting %d", fr.reqID, reqID)
		}
		switch fr.msgType {
		case wantType:
			c.putConn(p, pc)
			return fr.payload, nil
		case msgErr:
			err := decodeErr(fr.payload)
			c.putConn(p, pc)
			return nil, err
		default:
			pc.conn.Close()
			return nil, fmt.Errorf("shardrpc: unexpected response type %d", fr.msgType)
		}
	}
}

// attemptAsync runs attempt in the background and settles its bookkeeping
// (breaker, metrics, latency window) itself — so an abandoned hedge or a
// caller that gave up on the context still updates peer health correctly.
// The telemetry header is appended here, per attempt, because capability
// is a per-peer fact: the same call may hit a telemetry-negotiated peer
// on one attempt and a legacy peer on the failover.
func (c *Client) attemptAsync(p *peer, op string, mt byte, payload []byte, wantType byte, timeout time.Duration, tel *Telemetry) <-chan attemptResult {
	if tel != nil {
		// The tail decision needs the peer's negotiated capabilities; on a
		// cold peer force the hello now (helloPeer itself passes tel=nil,
		// so this cannot recurse). Best-effort: if the hello fails, the
		// attempt below fails the same way.
		if p.hello.Load() == nil {
			c.helloPeer(p)
		}
		if p.caps.Load()&capTelemetry != 0 {
			payload = appendTelemetry(payload, tel)
		}
	}
	ch := make(chan attemptResult, 1)
	go func() {
		start := time.Now()
		out, err := c.attempt(p, mt, payload, wantType, timeout)
		c.settle(p, op, err, time.Since(start), tel)
		ch <- attemptResult{payload: out, err: err, peer: p}
	}()
	return ch
}

func (c *Client) settle(p *peer, op string, err error, elapsed time.Duration, tel *Telemetry) {
	p.calls.Add(1)
	m := c.opt.Metrics
	before := p.breaker.State()
	if m != nil {
		m.Seconds.With(op).Observe(elapsed.Seconds())
		traceID := ""
		if tel != nil {
			traceID = tel.TraceID
		}
		m.PeerSeconds.With(p.addr).ObserveExemplar(elapsed.Seconds(), traceID)
	}
	var re *RemoteError
	switch {
	case err == nil:
		p.breaker.Success()
		c.lat.observe(elapsed)
		if m != nil {
			m.PeerCalls.With(p.addr, op, "ok").Inc()
		}
	case errors.As(err, &re):
		// The peer answered: it is alive, whatever it said. Misrouted or
		// stale peers are a config problem, not a liveness one — opening
		// the breaker would just hide the evidence.
		p.breaker.Success()
		p.noteErr(err)
		if m != nil {
			m.PeerCalls.With(p.addr, op, "remote_error").Inc()
		}
	default:
		if opened := p.breaker.Failure(); opened {
			c.opt.Logger.Warn("shardrpc: peer breaker opened", "peer", p.addr, "err", err)
		}
		p.noteErr(err)
		p.hello.Store(nil) // the process may come back with different data
		p.caps.Store(0)    // ...and different capabilities: renegotiate
		// ...and on new sockets: a pooled connection to the old process
		// would fail the half-open probe of a peer that has recovered.
		p.closeIdle()
		if m != nil {
			m.PeerCalls.With(p.addr, op, "network_error").Inc()
		}
	}
	if m != nil {
		if after := p.breaker.State(); after != before {
			m.BreakerTransitions.With(p.addr, after.String()).Inc()
		}
	}
}

// --- call: retry, failover, hedging, budget ---

// terminal reports errors that retrying cannot fix anywhere: the request
// itself is wrong.
func terminal(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == ErrCodeBadRequest
}

// PeerFailure is the typed failure of an exhausted call: which blocks the
// call carried (none for Verify, which names no block) and which peer
// addresses were attempted before it gave up. The coordinator unwraps it
// to attribute coverage loss (and the degraded metric) to the peers that
// actually failed.
type PeerFailure struct {
	Blocks []int    // ascending, unique
	Peers  []string // unique, in first-attempt order
	Err    error
}

func (e *PeerFailure) Error() string {
	if len(e.Blocks) == 0 {
		return fmt.Sprintf("shardrpc: call unavailable after retries against %v: %v", e.Peers, e.Err)
	}
	return fmt.Sprintf("shardrpc: blocks %v unavailable after retries against %v: %v", e.Blocks, e.Peers, e.Err)
}

func (e *PeerFailure) Unwrap() error { return e.Err }

// FailedPeers returns the attempted peer addresses — the method the
// coordinator matches via errors.As to attribute coverage loss without a
// type dependency on this package.
func (e *PeerFailure) FailedPeers() []string { return e.Peers }

// callMeta reports how a successful call was served: the answering peer
// and how many attempts (first try included) the call burned — span
// attributes for the stitched trace.
type callMeta struct {
	peer     string
	attempts int
	hedged   bool
}

// call runs one idempotent exchange against replicas until it succeeds,
// the budget runs out, or every attempt is spent. The caller's remaining
// context budget is carved evenly across the attempts still available,
// floored at MinAttemptTimeout — so one black-holed replica cannot eat
// the whole deadline that failover needed. An exhausted call fails with a
// *PeerFailure naming the peers it tried.
func (c *Client) call(ctx context.Context, op string, replicas []*peer, mt byte, payload []byte, wantType byte, tel *Telemetry) ([]byte, callMeta, error) {
	meta := callMeta{}
	maxAttempts := c.opt.MaxAttempts
	if n := 2 * len(replicas); maxAttempts < n {
		maxAttempts = n
	}
	// The call budget is the earlier of the context deadline and the
	// per-call cap — so one dead block costs the coordinator at most
	// CallTimeout per round, leaving deadline headroom to settle what
	// survived and return a degraded (but in-time) answer.
	budgetEnd := time.Now().Add(c.opt.CallTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(budgetEnd) {
		budgetEnd = d
	}
	start := int(c.rr.Add(1))
	var lastErr error
	var tried []string
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, meta, err
		}
		if time.Until(budgetEnd) <= 0 {
			break
		}
		p := pickReplica(ctx, replicas, start+attempt, budgetEnd)
		if p == nil {
			if err := ctx.Err(); err != nil {
				return nil, meta, err
			}
			lastErr = fmt.Errorf("shardrpc: all %d replicas have open breakers", len(replicas))
			for _, r := range replicas {
				tried = appendPeerOnce(tried, r.addr)
			}
			break
		}
		if attempt > 0 && c.opt.Metrics != nil {
			c.opt.Metrics.Retries.Inc()
		}
		tried = appendPeerOnce(tried, p.addr)
		// Measured after the pick, which may have waited on a probe. An
		// admitted peer is always attempted, even with the budget gone: it
		// may hold the half-open probe, which only an attempt resolves.
		slice := attemptSlice(time.Until(budgetEnd), maxAttempts-attempt, c.opt.MinAttemptTimeout)
		// The attempt span exists so /debug/active's current path names the
		// peer a blocked query is waiting on ("…>rpc:expand>peer:<addr>").
		attemptSpan := obs.SpanFromContext(ctx).StartChild("peer:" + p.addr)
		res := c.oneAttempt(ctx, p, replicas, op, mt, payload, wantType, slice, attempt == 0, tel)
		attemptSpan.End()
		if res.err == nil {
			meta.peer = res.peer.addr
			meta.attempts = attempt + 1
			meta.hedged = res.peer != p
			return res.payload, meta, nil
		}
		if res.peer != nil {
			tried = appendPeerOnce(tried, res.peer.addr)
		}
		if ctx.Err() != nil {
			return nil, meta, ctx.Err()
		}
		if terminal(res.err) {
			return nil, meta, res.err
		}
		lastErr = res.err
		// Backoff before the next attempt — full jitter, skipped when the
		// sleep would outlive the budget anyway.
		if attempt+1 < maxAttempts {
			d := c.bo.Delay(attempt)
			if d >= time.Until(budgetEnd) {
				continue // next loop iteration will see remaining <= 0 or try a last cheap attempt
			}
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, meta, ctx.Err()
			case <-t.C:
			}
		}
	}
	if lastErr == nil {
		lastErr = ctx.Err()
		if lastErr == nil {
			lastErr = fmt.Errorf("shardrpc: call budget exhausted")
		}
	}
	return nil, meta, &PeerFailure{Peers: tried, Err: lastErr}
}

// pickReplica returns the first replica, in rotation order from first,
// whose breaker admits a request. When every breaker refuses but one has
// its half-open probe in flight, a concurrent call is already testing
// that peer — concurrent queries, and a round's verify chunks, all reach
// a recovering peer at once, so one call gets the probe and its siblings
// arrive while it is out. The probe's outcome decides whether the block is
// reachable, so the siblings wait for it, until budgetEnd, rather than
// report a block lost that is one round trip from healthy. Nil means no
// replica can be tried within the budget.
func pickReplica(ctx context.Context, replicas []*peer, first int, budgetEnd time.Time) *peer {
	for {
		var probing <-chan struct{}
		for i := range replicas {
			cand := replicas[(first+i)%len(replicas)]
			ok, wait := cand.breaker.Allow()
			if ok {
				return cand
			}
			if probing == nil {
				probing = wait
			}
		}
		if probing == nil {
			return nil
		}
		t := time.NewTimer(time.Until(budgetEnd))
		select {
		case <-probing:
			t.Stop()
		case <-t.C:
			return nil
		case <-ctx.Done():
			t.Stop()
			return nil
		}
	}
}

func appendPeerOnce(peers []string, addr string) []string {
	for _, a := range peers {
		if a == addr {
			return peers
		}
	}
	return append(peers, addr)
}

// attemptSlice carves the per-attempt deadline from the remaining budget.
func attemptSlice(remaining time.Duration, attemptsLeft int, floor time.Duration) time.Duration {
	if attemptsLeft < 1 {
		attemptsLeft = 1
	}
	slice := remaining / time.Duration(attemptsLeft)
	if slice < floor {
		slice = floor
	}
	if slice > remaining {
		slice = remaining
	}
	return slice
}

// oneAttempt runs a single attempt, optionally hedged: when the primary
// is slower than the p99-derived delay, a second replica gets the same
// pure request and the first answer wins. The loser's goroutine settles
// its own bookkeeping whenever it finishes.
func (c *Client) oneAttempt(ctx context.Context, p *peer, replicas []*peer, op string, mt byte, payload []byte, wantType byte, timeout time.Duration, allowHedge bool, tel *Telemetry) attemptResult {
	primary := c.attemptAsync(p, op, mt, payload, wantType, timeout, tel)
	var hedge *peer
	if allowHedge && c.opt.Hedge {
		// Only a closed breaker: Allow on an open one would claim its
		// half-open probe for a request that is never sent when the
		// primary answers first, and nothing would ever resolve it.
		for _, cand := range replicas {
			if cand != p && cand.breaker.State() == retry.Closed {
				hedge = cand
				break
			}
		}
	}
	if hedge == nil {
		select {
		case res := <-primary:
			return res
		case <-ctx.Done():
			return attemptResult{err: ctx.Err()}
		}
	}
	timer := time.NewTimer(c.hedgeDelay())
	defer timer.Stop()
	select {
	case res := <-primary:
		return res
	case <-ctx.Done():
		return attemptResult{err: ctx.Err()}
	case <-timer.C:
	}
	second := c.attemptAsync(hedge, op, mt, payload, wantType, timeout, tel)
	var firstErr attemptResult
	for i := 0; i < 2; i++ {
		var res attemptResult
		select {
		case res = <-primary:
		case res = <-second:
		case <-ctx.Done():
			return attemptResult{err: ctx.Err()}
		}
		if res.err == nil {
			if m := c.opt.Metrics; m != nil {
				if res.peer == hedge {
					m.Hedges.With("won").Inc()
				} else {
					m.Hedges.With("lost").Inc()
				}
			}
			return res
		}
		if i == 0 {
			firstErr = res
		}
	}
	return firstErr
}

func (c *Client) hedgeDelay() time.Duration {
	if c.opt.HedgeDelay > 0 {
		return c.opt.HedgeDelay
	}
	d := c.lat.p99()
	if d == 0 {
		return defaultHedgeDelay
	}
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if d > maxHedgeDelay {
		d = maxHedgeDelay
	}
	return d
}

// --- latency window (hedge delay source) ---

type latWindow struct {
	mu  sync.Mutex
	buf [latWindowSize]time.Duration
	n   int // filled
	i   int // next slot
}

func (l *latWindow) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.i] = d
	l.i = (l.i + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

func (l *latWindow) p99() time.Duration {
	l.mu.Lock()
	n := l.n
	samples := make([]time.Duration, n)
	copy(samples, l.buf[:n])
	l.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	idx := n * 99 / 100
	if idx >= n {
		idx = n - 1
	}
	return samples[idx]
}

// --- hello / plan binding ---

// helloPeer returns the peer's advertisement, cached until a transport
// error suggests the process behind the address may have changed.
func (c *Client) helloPeer(p *peer) (HelloInfo, error) {
	if info := p.hello.Load(); info != nil {
		return *info, nil
	}
	res := <-c.attemptAsync(p, "hello", msgHello, encodeHello(localCaps), msgHelloOK, c.opt.DialTimeout, nil)
	if res.err != nil {
		return HelloInfo{}, res.err
	}
	info, caps, err := decodeHelloOKCaps(res.payload)
	if err != nil {
		return HelloInfo{}, err
	}
	// Store caps before hello: readers treat a cached hello as "negotiated",
	// so the capability set must already be visible when they see it.
	p.caps.Store(caps)
	p.hello.Store(&info)
	c.knownBlocks.Store(int64(info.Blocks))
	return info, nil
}

// ServesPlan reports whether this fleet can serve the plan: at least one
// reachable peer advertises the same digest, block count, and block size,
// and negotiated capBatch (a peer that cannot take a batched Expand
// cannot expand at all).
// When no peer is reachable at all it reports true — optimistically, so a
// transient full outage degrades queries (with coverage annotations)
// instead of silently reverting to a mode the operator didn't configure;
// the per-request digest check keeps optimism sound.
func (c *Client) ServesPlan(plan *shard.Plan) bool {
	digest := plan.Graph().Digest()
	nb := plan.NumBlocks()
	reachable, matched := 0, 0
	for _, p := range c.peers {
		info, err := c.helloPeer(p)
		if err != nil {
			continue
		}
		reachable++
		if info.Digest == digest && info.Blocks == nb && info.BlockSize == c.opt.BlockSize &&
			p.caps.Load()&capBatch != 0 {
			matched++
		}
	}
	if reachable == 0 {
		return true
	}
	return matched > 0
}

// For binds the client to a plan, yielding the shard.ShardServer the
// coordinator dispatches rounds through. Binding groups the plan's blocks
// by replica set once, so a round splits into one frame per set.
func (c *Client) For(plan *shard.Plan) shard.ShardServer {
	nb := plan.NumBlocks()
	c.knownBlocks.Store(int64(nb))
	b := &bound{c: c, digest: plan.Graph().Digest(), setOf: make([]int32, nb)}
	ids := map[string]int32{}
	var key []byte
	for blk := range b.setOf {
		var set []*peer
		key = key[:0]
		for i, p := range c.peers {
			if p.spec.Covers(blk) {
				set = append(set, p)
				key = binary.AppendUvarint(key, uint64(i))
			}
		}
		if len(set) == 0 {
			b.setOf[blk] = -1
			continue
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(b.sets))
			ids[string(key)] = id
			b.sets = append(b.sets, set)
		}
		b.setOf[blk] = id
	}
	return b
}

type bound struct {
	c      *Client
	digest uint64
	setOf  []int32   // block -> index into sets (-1: no peer serves it)
	sets   [][]*peer // the distinct replica sets, in first-block order
}

// Expand implements shard.ShardServer: the round's slots are split by
// replica set and each share goes out as one frame — concurrently, each
// through call's retry, failover, hedging and breakers. A share whose
// call fails terminally loses exactly its slots (SlotResult.Err, a
// *PeerFailure naming the share's blocks and the peers tried); the other
// shares' slots are served as usual.
func (b *bound) Expand(ctx context.Context, req *shard.ExpandRequest) (*shard.ExpandResponse, error) {
	resp := &shard.ExpandResponse{Slots: make([]shard.SlotResult, len(req.Slots))}
	shares := make([][]int, len(b.sets))
	var orphans []int
	for i, sl := range req.Slots {
		if sl.Block < 0 || sl.Block >= len(b.setOf) || b.setOf[sl.Block] < 0 {
			orphans = append(orphans, i)
			continue
		}
		set := b.setOf[sl.Block]
		shares[set] = append(shares[set], i)
	}
	if len(orphans) > 0 {
		err := fmt.Errorf("shardrpc: no peer serves blocks %v", blocksOf(req, orphans))
		for _, i := range orphans {
			resp.Slots[i].Err = err
		}
	}
	tel := b.c.telemetryFor(ctx)
	var wg sync.WaitGroup
	for set, idx := range shares {
		if len(idx) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.expandShare(ctx, tel, req, idx, b.sets[set], resp)
			}()
		}
	}
	wg.Wait()
	return resp, nil
}

// expandShare sends the slots at idx of req to one replica set and writes
// their results (or their loss) into resp at the same indices.
func (b *bound) expandShare(ctx context.Context, tel *Telemetry, req *shard.ExpandRequest, idx []int, replicas []*peer, resp *shard.ExpandResponse) {
	share := req
	if len(idx) < len(req.Slots) {
		share = &shard.ExpandRequest{Level: req.Level, Slots: make([]shard.ExpandSlot, len(idx))}
		for j, i := range idx {
			share.Slots[j] = req.Slots[i]
		}
	}
	rpcSpan := obs.SpanFromContext(ctx).StartChild("rpc:expand")
	if rpcSpan != nil {
		ctx = obs.ContextWithSpan(ctx, rpcSpan)
		rpcSpan.SetAttr("level", req.Level).SetAttr("slots", len(idx))
	}
	payload, meta, err := b.c.call(ctx, "expand", replicas, msgExpand, encodeExpand(b.digest, share), msgExpandOK, tel)
	var got *shard.ExpandResponse
	if err == nil {
		var summary []byte
		got, summary, err = decodeExpandOKFull(payload)
		if err == nil && len(got.Slots) != len(idx) {
			err = fmt.Errorf("shardrpc: peer %s answered %d of %d slots", meta.peer, len(got.Slots), len(idx))
		}
		b.finishRPC(ctx, rpcSpan, meta, summary)
	} else {
		rpcSpan.SetAttr("error", err.Error()).End()
	}
	if err != nil {
		var pf *PeerFailure
		if errors.As(err, &pf) {
			pf.Blocks = blocksOf(req, idx)
		}
		for _, i := range idx {
			resp.Slots[i].Err = err
		}
		return
	}
	for j, i := range idx {
		resp.Slots[i] = got.Slots[j]
	}
}

// blocksOf lists the distinct blocks of req's slots at idx, ascending.
func blocksOf(req *shard.ExpandRequest, idx []int) []int {
	out := make([]int, 0, len(idx))
	for _, i := range idx {
		out = append(out, req.Slots[i].Block)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func (b *bound) Verify(ctx context.Context, req *shard.VerifyRequest) (*shard.VerifyResponse, error) {
	tel := b.c.telemetryFor(ctx)
	rpcSpan := obs.SpanFromContext(ctx).StartChild("rpc:verify")
	if rpcSpan != nil {
		ctx = obs.ContextWithSpan(ctx, rpcSpan)
	}
	// Verification reads only the graph, so every peer is a replica.
	payload, meta, err := b.c.call(ctx, "verify", b.c.peers, msgVerify, encodeVerify(b.digest, req), msgVerifyOK, tel)
	if err != nil {
		rpcSpan.SetAttr("error", err.Error()).End()
		return nil, err
	}
	resp, summary, derr := decodeVerifyOKFull(payload)
	b.finishRPC(ctx, rpcSpan, meta, summary)
	if derr != nil {
		return nil, derr
	}
	return resp, nil
}

// finishRPC closes the client-side RPC span with routing attributes and,
// when the peer shipped a telemetry summary back, grafts the remote span
// tree under it and folds the remote ledger into the query's ledger. A
// malformed summary is dropped silently — stitching is best-effort and
// must never affect the answer.
func (b *bound) finishRPC(ctx context.Context, rpcSpan *obs.Span, meta callMeta, summary []byte) {
	if rpcSpan != nil {
		rpcSpan.SetAttr("peer", meta.peer)
		if meta.attempts > 1 {
			rpcSpan.SetAttr("attempts", meta.attempts)
		}
		if meta.hedged {
			rpcSpan.SetAttr("hedged", true)
		}
	}
	if len(summary) > 0 {
		var sum RemoteSummary
		if err := json.Unmarshal(summary, &sum); err == nil {
			if rpcSpan != nil && sum.Span != nil {
				rpcSpan.AttachRemote(*sum.Span)
			}
			obs.LedgerFromContext(ctx).MergeRemote(sum.Ledger)
		}
	}
	rpcSpan.End()
}

// telemetryFor decides, per query, whether this call carries a telemetry
// header: there must be a span in the context (no trace, nothing to
// stitch into), sampling must be enabled, and the trace ID must hash
// under the sampling probability — deterministically, so every RPC of one
// query makes the same decision and a trace is either fully stitched or
// not at all.
func (c *Client) telemetryFor(ctx context.Context) *Telemetry {
	if c.opt.TelemetrySample <= 0 {
		return nil
	}
	sp := obs.SpanFromContext(ctx)
	if sp == nil {
		return nil
	}
	tid := sp.Trace().ID()
	if tid == "" {
		return nil
	}
	if c.opt.TelemetrySample < 1 && !sampleHash(tid, c.opt.TelemetrySample) {
		return nil
	}
	return &Telemetry{TraceID: tid, ParentSpan: sp.Name(), Sampled: true}
}

// sampleHash maps id through FNV-1a onto [0,1) and compares against the
// sampling probability.
func sampleHash(id string, p float64) bool {
	h := fnv.New64a()
	h.Write([]byte(id))
	return float64(h.Sum64())/float64(^uint64(0)) < p
}

// --- health / readiness ---

// CoverageFloor estimates the fraction of blocks that at least one
// non-open-breaker peer serves — the coordinator is ready iff this is
// above zero (a partial fleet degrades; an empty one cannot answer at
// all).
func (c *Client) CoverageFloor() float64 {
	healthy := c.healthyPeers()
	if len(healthy) == 0 {
		return 0
	}
	for _, p := range healthy {
		if p.spec.All {
			return 1
		}
	}
	nb := int(c.knownBlocks.Load())
	if nb <= 0 {
		// Block count unknown (no plan bound, no hello yet): some peer is
		// healthy, so the only readiness-relevant signal — zero — is off.
		return 1
	}
	covered := 0
	for b := 0; b < nb; b++ {
		for _, p := range healthy {
			if p.spec.Covers(b) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(nb)
}

func (c *Client) healthyPeers() []*peer {
	var out []*peer
	for _, p := range c.peers {
		// Probeable, not State(): an open breaker whose cooldown elapsed
		// will admit the next query's probe, so that peer still counts
		// toward the floor — otherwise an idle coordinator would report
		// not-ready forever after an outage no query has re-tested.
		if p.breaker.Probeable() {
			out = append(out, p)
		}
	}
	return out
}

// PeerFleetInfo is one peer's entry in a fleet snapshot: its health, the
// identity it advertised in hello (digest/blocks/block size), the
// capabilities it negotiated, and — when it speaks capStats — the live
// resource/counter snapshot its Stats RPC returned.
type PeerFleetInfo struct {
	PeerHealth
	Digest    string     `json:"digest,omitempty"`
	NumBlocks int        `json:"num_blocks,omitempty"`
	BlockSize int        `json:"block_size,omitempty"`
	Telemetry bool       `json:"telemetry"`
	Stats     *StatsInfo `json:"stats,omitempty"`
	StatsErr  string     `json:"stats_error,omitempty"`
}

// FleetSnapshot polls every configured peer — hello (cached when fresh)
// plus a Stats RPC where the peer negotiated capStats — and returns one
// entry per peer, in configuration order. Peers are polled concurrently;
// an unreachable peer contributes its health row with the error, never a
// failure of the snapshot. Backs GET /debug/fleet.
func (c *Client) FleetSnapshot(ctx context.Context) []PeerFleetInfo {
	health := c.Health()
	out := make([]PeerFleetInfo, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		out[i] = PeerFleetInfo{PeerHealth: health[i]}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			info, err := c.helloPeer(p)
			if err != nil {
				out[i].StatsErr = err.Error()
				return
			}
			out[i].Digest = fmt.Sprintf("%016x", info.Digest)
			out[i].NumBlocks = info.Blocks
			out[i].BlockSize = info.BlockSize
			caps := p.caps.Load()
			out[i].Telemetry = caps&capTelemetry != 0
			if caps&capStats == 0 {
				// Pre-capability peer: msgStats would kill its connection
				// (old readFrame treats unknown types as protocol errors),
				// so don't even ask.
				return
			}
			res := <-c.attemptAsync(p, "stats", msgStats, nil, msgStatsOK, c.opt.DialTimeout, nil)
			if res.err != nil {
				out[i].StatsErr = res.err.Error()
				return
			}
			st, err := decodeStatsOK(res.payload)
			if err != nil {
				out[i].StatsErr = err.Error()
				return
			}
			out[i].Stats = &st
		}(i, p)
	}
	wg.Wait()
	return out
}

// Health snapshots every peer for /stats.
func (c *Client) Health() []PeerHealth {
	out := make([]PeerHealth, 0, len(c.peers))
	for _, p := range c.peers {
		state := "healthy"
		switch p.breaker.State() {
		case retry.Open:
			state = "open-breaker"
		case retry.HalfOpen:
			state = "degraded"
		default:
			if p.breaker.Fails() > 0 {
				state = "degraded"
			}
		}
		out = append(out, PeerHealth{
			Addr:    p.addr,
			Blocks:  p.spec.String(),
			State:   state,
			Fails:   p.breaker.Fails(),
			Calls:   p.calls.Load(),
			LastErr: p.lastError(),
		})
	}
	return out
}
