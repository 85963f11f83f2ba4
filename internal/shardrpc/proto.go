// Package shardrpc promotes shard.ShardServer to a network boundary: a
// Server wraps the in-process shard.Local behind a length-prefixed TCP
// protocol, and a Client implements shard.ShardServer over a fleet of
// replica peers with retries, failover, hedging, and per-peer circuit
// breakers. The protocol inherits the shard package's statelessness —
// every request is a pure function of the immutable plan — which is what
// makes every resilience trick sound: a retried, duplicated, or hedged
// request returns the same answer from any replica (DESIGN.md §9.4).
//
// Wire format (all integers little-endian):
//
//	frame  = u32 bodyLen | body | u32 crc32(body)   (IEEE CRC over body)
//	body   = u8 msgType | u64 reqID | payload
//
// reqIDs increase per connection; a response frame whose reqID is below
// the one awaited is a duplicate (injected or retransmitted) and is
// discarded, one above is a desync and kills the connection. The CRC
// rejects corrupted frames before any payload is interpreted. An Expand
// request carries one round's (keyword, block) slots for the peer — one
// frame per peer per round, however many blocks the round touches. Expand
// and Verify requests carry the graph digest the caller planned against; a
// peer serving different data answers errStale rather than a wrong
// answer, so replicas can never silently mix graph versions.
package shardrpc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"bigindex/internal/graph"
	"bigindex/internal/search"
	"bigindex/internal/shard"
)

// Message types. msgStats/msgStatsOK postdate the first protocol
// release: a pre-capability peer's readFrame rejects them as unknown
// types and kills the connection, so the client only ever sends msgStats
// to a peer that advertised capStats in the hello exchange. Types 3 and 4
// were the single-slot Expand exchange; the batched msgExpand replaced
// them under new numbers, so a peer of either vintage rejects the other's
// Expand instead of misreading it, and a server answers 3 with a
// structured error.
const (
	msgHello     = 1
	msgHelloOK   = 2
	msgVerify    = 5
	msgVerifyOK  = 6
	msgErr       = 7
	msgStats     = 8
	msgStatsOK   = 9
	msgExpand    = 10
	msgExpandOK  = 11
	msgTypeCount = 12
)

// Capability bits, negotiated in the hello exchange. The client sends its
// capability set as the (previously empty) hello payload; the server
// answers with the intersection appended to the HelloOK payload. Both
// sides treat a missing set as zero, so a new client interoperates with a
// pre-capability server and vice versa: optional protocol features only
// engage when both ends advertised them.
const (
	// capTelemetry: Expand/Verify requests may carry a telemetry tail
	// (trace ID, parent span, sampling decision) and responses to such
	// requests carry a remote span/ledger summary tail.
	capTelemetry = 1 << 0
	// capStats: the peer answers the msgStats resource/health probe.
	capStats = 1 << 1
	// capBatch: the peer serves msgExpand, one round's slots per frame. A
	// peer without it cannot expand at all, so it serves no plan.
	capBatch = 1 << 2

	// localCaps is everything this build supports.
	localCaps = capTelemetry | capStats | capBatch
)

// Remote error codes.
const (
	// ErrCodeStale: the peer serves a different graph digest than the
	// request was planned against.
	ErrCodeStale = 1
	// ErrCodeBadRequest: malformed or out-of-range request (not retryable).
	ErrCodeBadRequest = 2
	// ErrCodeInternal: the peer failed to serve a well-formed request.
	ErrCodeInternal = 3
)

// maxFrame caps a frame body — far above any realistic round, small
// enough that a corrupted length prefix cannot make a reader allocate
// gigabytes.
const maxFrame = 64 << 20

// RemoteError is a structured failure returned by a peer.
type RemoteError struct {
	Code int
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("shardrpc: remote error %d: %s", e.Code, e.Msg)
}

// HelloInfo is what a peer advertises about the data it serves. The
// client matches Digest/Blocks/BlockSize against its plan before routing
// rounds to the peer.
type HelloInfo struct {
	Digest    uint64
	Blocks    int
	BlockSize int
	Vertices  int
}

// frame is one decoded frame.
type frame struct {
	msgType byte
	reqID   uint64
	payload []byte
}

// writeFrame writes one frame to w. body is assembled once so the write
// is a single syscall on an unfragmented path.
func writeFrame(w io.Writer, msgType byte, reqID uint64, payload []byte) error {
	body := make([]byte, 9+len(payload))
	body[0] = msgType
	binary.LittleEndian.PutUint64(body[1:9], reqID)
	copy(body[9:], payload)

	buf := make([]byte, 4+len(body)+4)
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(body)))
	copy(buf[4:], body)
	binary.LittleEndian.PutUint32(buf[4+len(body):], crc32.ChecksumIEEE(body))
	_, err := w.Write(buf)
	return err
}

// readFrame reads and validates one frame. Any violation — oversized
// length, bad CRC, unknown type — is a hard protocol error; the caller
// must close the connection (there is no way to resynchronize a byte
// stream after a damaged length prefix).
func readFrame(r io.Reader) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 9 || n > maxFrame {
		return frame{}, fmt.Errorf("shardrpc: frame length %d out of range", n)
	}
	body := make([]byte, n+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	sum := binary.LittleEndian.Uint32(body[n:])
	body = body[:n]
	if crc32.ChecksumIEEE(body) != sum {
		return frame{}, fmt.Errorf("shardrpc: frame CRC mismatch")
	}
	if body[0] == 0 || body[0] >= msgTypeCount {
		return frame{}, fmt.Errorf("shardrpc: unknown message type %d", body[0])
	}
	return frame{
		msgType: body[0],
		reqID:   binary.LittleEndian.Uint64(body[1:9]),
		payload: body[9:],
	}, nil
}

// enc is an append-based payload encoder.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) vs(vs []graph.V) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.u32(uint32(v))
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// dec is a bounds-checked payload decoder; the first violation poisons it
// and every later read reports failure.
type dec struct {
	b   []byte
	off int
	bad bool
}

func (d *dec) fail() { d.bad = true }
func (d *dec) u8() byte {
	if d.bad || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}
func (d *dec) u32() uint32 {
	if d.bad || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}
func (d *dec) u64() uint64 {
	if d.bad || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// count reads a length prefix and sanity-bounds it by the remaining
// bytes / elemSize so a hostile count cannot drive a huge allocation.
func (d *dec) count(elemSize int) int {
	n := int(d.u32())
	if d.bad {
		return 0
	}
	if n < 0 || n*elemSize > len(d.b)-d.off {
		d.fail()
		return 0
	}
	return n
}

func (d *dec) vs() []graph.V {
	n := d.count(4)
	if d.bad || n == 0 {
		return nil
	}
	vs := make([]graph.V, n)
	for i := range vs {
		vs[i] = graph.V(d.u32())
	}
	return vs
}

func (d *dec) str() string {
	n := d.count(1)
	if d.bad || n == 0 {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) done() error {
	if d.bad {
		return fmt.Errorf("shardrpc: truncated or malformed payload")
	}
	return nil
}

// --- payload codecs ---

func encodeHelloOK(info HelloInfo) []byte {
	var e enc
	e.u64(info.Digest)
	e.u32(uint32(info.Blocks))
	e.u32(uint32(info.BlockSize))
	e.u64(uint64(info.Vertices))
	return e.b
}

// encodeExpand renders one round's share for a peer:
//
//	u64 digest | u32 level | u32 nslots | nslots × (u32 kw | u32 block | u32 n | n × u32 v)
func encodeExpand(digest uint64, req *shard.ExpandRequest) []byte {
	size := 16
	for _, sl := range req.Slots {
		size += 12 + 4*len(sl.Frontier)
	}
	e := enc{b: make([]byte, 0, size)}
	e.u64(digest)
	e.u32(uint32(req.Level))
	e.u32(uint32(len(req.Slots)))
	for _, sl := range req.Slots {
		e.u32(uint32(sl.Kw))
		e.u32(uint32(sl.Block))
		e.vs(sl.Frontier)
	}
	return e.b
}

// encodeExpandOK renders the slot results in request order:
//
//	u32 nslots | nslots × (u32 n | n × u32 local | u32 m | m × (u32 v | u32 block) | u32 expanded)
func encodeExpandOK(resp *shard.ExpandResponse) []byte {
	size := 4
	for i := range resp.Slots {
		size += 12 + 4*len(resp.Slots[i].Local) + 8*len(resp.Slots[i].Outbox)
	}
	e := enc{b: make([]byte, 0, size)}
	e.u32(uint32(len(resp.Slots)))
	for i := range resp.Slots {
		r := &resp.Slots[i]
		e.vs(r.Local)
		e.u32(uint32(len(r.Outbox)))
		for _, m := range r.Outbox {
			e.u32(uint32(m.V))
			e.u32(uint32(m.Block))
		}
		e.u32(uint32(r.Expanded))
	}
	return e.b
}

func encodeVerify(digest uint64, req *shard.VerifyRequest) []byte {
	var e enc
	e.u64(digest)
	e.u32(uint32(req.DMax))
	e.u32(uint32(len(req.Labels)))
	for _, l := range req.Labels {
		e.u32(uint32(l))
	}
	e.vs(req.Roots)
	return e.b
}

func encodeVerifyOK(resp *shard.VerifyResponse) []byte {
	var e enc
	e.u32(uint32(resp.Verified))
	e.u32(uint32(len(resp.Matches)))
	for i := range resp.Matches {
		m := &resp.Matches[i]
		e.u32(uint32(m.Root))
		e.u32(uint32(len(m.Dists)))
		for _, dv := range m.Dists {
			e.u32(uint32(dv))
		}
		e.vs(m.Nodes)
	}
	return e.b
}

func encodeErr(code int, msg string) []byte {
	var e enc
	e.u8(byte(code))
	e.str(msg)
	return e.b
}

func decodeErr(p []byte) error {
	d := dec{b: p}
	re := &RemoteError{Code: int(d.u8()), Msg: d.str()}
	if err := d.done(); err != nil {
		return err
	}
	return re
}

// --- capability / telemetry tails ---
//
// Optional protocol extensions ride as *tails* appended after a message's
// base payload. A decoder reads the base fields first and checks only
// their well-formedness (dec.done), not full consumption, which is the
// whole backward-compatibility story: a pre-capability peer decodes the
// base and never notices the tail, and a tail that fails to parse is
// dropped — never an error — so telemetry can degrade but the answer path
// cannot.

// encodeHello renders the client's capability advertisement. A
// pre-capability client sends an empty hello payload, which decodes as
// caps 0.
func encodeHello(caps uint32) []byte {
	var e enc
	e.u32(caps)
	return e.b
}

// decodeHelloCaps reads the capability set from a hello payload; an
// empty or malformed payload is a pre-capability client (caps 0).
func decodeHelloCaps(p []byte) uint32 {
	if len(p) < 4 {
		return 0
	}
	d := dec{b: p}
	return d.u32()
}

// encodeHelloOKCaps is encodeHelloOK with the negotiated capability set
// appended as a tail. Old clients decode the base fields and ignore it.
func encodeHelloOKCaps(info HelloInfo, caps uint32) []byte {
	b := encodeHelloOK(info)
	var e enc
	e.b = b
	e.u32(caps)
	return e.b
}

// decodeHelloOKCaps decodes a HelloOK plus the optional capability tail
// (0 when the server predates capabilities or the tail is malformed).
func decodeHelloOKCaps(p []byte) (HelloInfo, uint32, error) {
	d := dec{b: p}
	info := HelloInfo{
		Digest:    d.u64(),
		Blocks:    int(d.u32()),
		BlockSize: int(d.u32()),
		Vertices:  int(d.u64()),
	}
	if err := d.done(); err != nil {
		return HelloInfo{}, 0, err
	}
	var caps uint32
	if d.off+4 <= len(d.b) {
		caps = d.u32()
	}
	return info, caps, nil
}

// Telemetry is the trace context a request carries over the wire when
// both ends negotiated capTelemetry: enough for the peer to run its own
// sampled span/ledger and for the coordinator to stitch the result back
// under the right trace.
type Telemetry struct {
	TraceID    string
	ParentSpan string
	Sampled    bool
}

// telMagic guards the telemetry tail: trailing bytes that do not start
// with it are not a telemetry header and are ignored wholesale, so a
// future extension (or damage that survived every other check) can never
// be misread as trace context.
const telMagic = 0x54454C31 // "TEL1"

// appendTelemetry appends the telemetry tail to a base request payload.
func appendTelemetry(base []byte, tel *Telemetry) []byte {
	if tel == nil {
		return base
	}
	e := enc{b: base}
	e.u32(telMagic)
	e.str(tel.TraceID)
	e.str(tel.ParentSpan)
	if tel.Sampled {
		e.u8(1)
	} else {
		e.u8(0)
	}
	return e.b
}

// decodeTelemetryTail attempts to read a telemetry tail starting at
// d.off. Any malformation — wrong magic, truncation, oversized strings —
// returns nil without poisoning d: a broken telemetry header silently
// drops telemetry, never the request. The caller's base decode already
// succeeded by the time this runs.
func decodeTelemetryTail(d *dec) *Telemetry {
	if d.bad || d.off+4 > len(d.b) {
		return nil
	}
	t := dec{b: d.b, off: d.off}
	if t.u32() != telMagic {
		return nil
	}
	tel := &Telemetry{TraceID: t.str(), ParentSpan: t.str()}
	tel.Sampled = t.u8() == 1
	if t.bad || tel.TraceID == "" || len(tel.TraceID) > 128 || len(tel.ParentSpan) > 256 {
		return nil
	}
	return tel
}

// decodeExpandFull decodes a batched Expand request plus the optional
// telemetry tail. Every slot takes at least 12 bytes, so a hostile slot
// count fails the bound in dec.count before anything is allocated.
func decodeExpandFull(p []byte) (digest uint64, req *shard.ExpandRequest, tel *Telemetry, err error) {
	d := dec{b: p}
	digest = d.u64()
	req = &shard.ExpandRequest{Level: int32(d.u32())}
	if n := d.count(12); n > 0 {
		req.Slots = make([]shard.ExpandSlot, n)
		for i := range req.Slots {
			sl := &req.Slots[i]
			sl.Kw = int(d.u32())
			sl.Block = int(d.u32())
			sl.Frontier = d.vs()
		}
	}
	if err := d.done(); err != nil {
		return 0, nil, nil, err
	}
	return digest, req, decodeTelemetryTail(&d), nil
}

// decodeVerifyFull decodes a Verify request plus the optional telemetry
// tail.
func decodeVerifyFull(p []byte) (digest uint64, req *shard.VerifyRequest, tel *Telemetry, err error) {
	d := dec{b: p}
	digest = d.u64()
	req = &shard.VerifyRequest{DMax: int(d.u32())}
	n := d.count(4)
	if n > 0 {
		req.Labels = make([]graph.Label, n)
		for i := range req.Labels {
			req.Labels[i] = graph.Label(d.u32())
		}
	}
	req.Roots = d.vs()
	if err := d.done(); err != nil {
		return 0, nil, nil, err
	}
	return digest, req, decodeTelemetryTail(&d), nil
}

// appendSummary appends a remote span/ledger summary tail (JSON, see
// RemoteSummary) to a response payload. Sent only in reply to a request
// that carried a telemetry tail.
func appendSummary(base []byte, summary []byte) []byte {
	if len(summary) == 0 {
		return base
	}
	e := enc{b: base}
	e.u32(telMagic)
	e.str(string(summary))
	return e.b
}

// decodeSummaryTail reads the optional summary tail at d.off; nil when
// absent or malformed (telemetry drops, answers do not).
func decodeSummaryTail(d *dec) []byte {
	if d.bad || d.off+4 > len(d.b) {
		return nil
	}
	t := dec{b: d.b, off: d.off}
	if t.u32() != telMagic {
		return nil
	}
	s := t.str()
	if t.bad || s == "" {
		return nil
	}
	return []byte(s)
}

// decodeExpandOKFull decodes a batched ExpandOK response plus the
// optional summary tail. Slots is never nil, like shard.Local's.
func decodeExpandOKFull(p []byte) (*shard.ExpandResponse, []byte, error) {
	d := dec{b: p}
	resp := &shard.ExpandResponse{Slots: make([]shard.SlotResult, d.count(12))}
	for i := range resp.Slots {
		r := &resp.Slots[i]
		r.Local = d.vs()
		if n := d.count(8); n > 0 {
			r.Outbox = make([]shard.PortalMsg, n)
			for j := range r.Outbox {
				r.Outbox[j].V = graph.V(d.u32())
				r.Outbox[j].Block = int32(d.u32())
			}
		}
		r.Expanded = int(d.u32())
	}
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return resp, decodeSummaryTail(&d), nil
}

// minMatchWire is the least a match takes on the wire: its root, its
// distance count and its node count.
const minMatchWire = 12

// decodeVerifyOKFull decodes a VerifyOK response plus the optional
// summary tail.
func decodeVerifyOKFull(p []byte) (*shard.VerifyResponse, []byte, error) {
	d := dec{b: p}
	resp := &shard.VerifyResponse{Verified: int(d.u32())}
	// A match takes at least minMatchWire bytes on the wire, so the
	// preallocated slice stays within a few times the payload.
	n := d.count(minMatchWire)
	if n > 0 {
		resp.Matches = make([]search.Match, 0, n)
		for i := 0; i < n && !d.bad; i++ {
			m := search.Match{Root: graph.V(d.u32())}
			nd := d.count(4)
			sum := 0
			if nd > 0 {
				m.Dists = make([]int, nd)
				for j := range m.Dists {
					m.Dists[j] = int(d.u32())
					sum += m.Dists[j]
				}
			}
			// Score is Σdist by construction on both sides: recomputing it
			// here keeps floats off the wire with zero drift (small integer
			// sums are exact in float64).
			m.Score = float64(sum)
			m.Nodes = d.vs()
			resp.Matches = append(resp.Matches, m)
		}
	}
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return resp, decodeSummaryTail(&d), nil
}

// --- stats probe ---

// StatsInfo is a shard server's self-report behind the msgStats probe:
// resource gauges and serve counters the coordinator's /debug/fleet
// aggregates across the fleet. Carried as JSON — the probe is a debug
// surface, not a hot path, and JSON lets either side grow fields without
// another wire rev.
type StatsInfo struct {
	Digest       string `json:"digest"`
	Blocks       int    `json:"blocks"`
	BlocksServed int    `json:"blocks_served"`
	Vertices     int    `json:"vertices"`
	UptimeS      int64  `json:"uptime_s"`
	Goroutines   int    `json:"goroutines"`
	HeapBytes    uint64 `json:"heap_bytes"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Expands      int64  `json:"expands"`
	Verifies     int64  `json:"verifies"`
	Errors       int64  `json:"errors"`
}

func encodeStatsOK(info StatsInfo) []byte {
	blob, err := json.Marshal(info)
	if err != nil {
		blob = []byte("{}")
	}
	var e enc
	e.str(string(blob))
	return e.b
}

func decodeStatsOK(p []byte) (StatsInfo, error) {
	d := dec{b: p}
	blob := d.str()
	if err := d.done(); err != nil {
		return StatsInfo{}, err
	}
	var info StatsInfo
	if err := json.Unmarshal([]byte(blob), &info); err != nil {
		return StatsInfo{}, fmt.Errorf("shardrpc: stats payload: %w", err)
	}
	return info, nil
}
