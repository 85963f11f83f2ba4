package shardrpc

import (
	"bufio"
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"bigindex/internal/faultio"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
	"bigindex/internal/shard"
)

// tracedCtx returns a context carrying a fresh trace root and ledger,
// the way the HTTP server arms a query before evaluation.
func tracedCtx() (context.Context, *obs.Trace, *obs.Ledger) {
	tr := obs.NewTrace("query")
	led := obs.NewLedger()
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	ctx = obs.ContextWithLedger(ctx, led)
	return ctx, tr, led
}

// findSpan walks a rendered span tree for the first span with name.
func findSpan(sj obs.SpanJSON, name string) *obs.SpanJSON {
	if sj.Name == name {
		return &sj
	}
	for i := range sj.Children {
		if got := findSpan(sj.Children[i], name); got != nil {
			return got
		}
	}
	return nil
}

// startLegacyPeer serves plan the way a pre-capability build did, as far
// as today's client can still talk to it: the hello answer has no
// capability tail, a telemetry tail on a Verify is decoded but never acted
// on, responses carry no summary, and any other message type (the batched
// Expand, Stats) kills the connection as the old readFrame did. The
// production server speaks one vintage; this keeps the client's handling
// of a caps==0 peer under test.
func startLegacyPeer(t *testing.T, plan *shard.Plan) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	local := shard.NewLocal(plan)
	hello := NewServer(plan, ServerOptions{}).Hello()
	serve := func(conn net.Conn) {
		defer conn.Close()
		r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
		for {
			fr, err := readFrame(r)
			if err != nil {
				return
			}
			var mt byte
			var out []byte
			switch fr.msgType {
			case msgHello:
				mt, out = msgHelloOK, encodeHelloOK(hello)
			case msgVerify:
				_, req, _, err := decodeVerifyFull(fr.payload)
				if err != nil {
					return
				}
				resp, _ := local.Verify(context.Background(), req)
				mt, out = msgVerifyOK, encodeVerifyOK(resp)
			default: // msgExpand, msgStats: unknown to this vintage
				return
			}
			if writeFrame(w, mt, fr.reqID, out) != nil || w.Flush() != nil {
				return
			}
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// TestHelloCapsNegotiation: a current client negotiates the full
// capability set with a current server, and zero with a legacy one.
func TestHelloCapsNegotiation(t *testing.T) {
	g := testGraph(30, 60)
	plan := testPlan(t, g, 16)
	_, modern := startServer(t, plan, ServerOptions{})
	legacy := startLegacyPeer(t, plan)

	c := NewClient(ClientOptions{Peers: mustPeers(t, modern+";"+legacy)})
	defer c.Close()
	for _, p := range c.peers {
		if _, err := c.helloPeer(p); err != nil {
			t.Fatalf("hello %s: %v", p.addr, err)
		}
	}
	if got := c.peers[0].caps.Load(); got != localCaps {
		t.Fatalf("modern peer caps = %#x, want %#x", got, localCaps)
	}
	if got := c.peers[1].caps.Load(); got != 0 {
		t.Fatalf("legacy peer caps = %#x, want 0", got)
	}
}

// TestTelemetryStitching runs a traced Expand and Verify at sample rate 1
// and checks the coordinator-side trace gained the rpc span with routing
// attrs, the grafted remote span, and the merged remote ledger — while
// the answers stay byte-identical to the in-process ground truth.
func TestTelemetryStitching(t *testing.T) {
	g := testGraph(31, 80)
	plan := testPlan(t, g, 16)
	local := shard.NewLocal(plan)
	_, addr := startServer(t, plan, ServerOptions{})

	c := NewClient(ClientOptions{Peers: mustPeers(t, addr), TelemetrySample: 1})
	defer c.Close()
	bnd := c.For(plan)

	ctx, tr, led := tracedCtx()
	req := slotReq(plan, g.DistinctLabels()[0], 0)
	want, _ := local.Expand(context.Background(), req)
	got, err := bnd.Expand(ctx, req)
	if err := expandErr(got, err); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("telemetry changed the answer\n got: %+v\nwant: %+v", got, want)
	}
	vreq := &shard.VerifyRequest{Labels: g.DistinctLabels()[:2], DMax: 3, Roots: []graph.V{0, 1, 2}}
	vwant, _ := local.Verify(context.Background(), vreq)
	vgot, err := bnd.Verify(ctx, vreq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vgot, vwant) {
		t.Fatalf("telemetry changed the verify answer")
	}

	snap := tr.Snapshot()
	rpc := findSpan(snap, "rpc:expand")
	if rpc == nil {
		t.Fatalf("no rpc:expand span in trace: %+v", snap)
	}
	if rpc.Attrs["peer"] != addr {
		t.Fatalf("rpc span peer attr = %v, want %s", rpc.Attrs["peer"], addr)
	}
	if rpc.Attrs["slots"] != 1 {
		t.Fatalf("rpc span slots attr = %v, want 1", rpc.Attrs["slots"])
	}
	remote := findSpan(snap, "remote:expand")
	if remote == nil {
		t.Fatalf("no grafted remote:expand span in stitched trace")
	}
	if remote.Attrs["remote_trace_id"] != tr.ID() {
		t.Fatalf("remote span trace id attr = %v, want %s", remote.Attrs["remote_trace_id"], tr.ID())
	}
	if findSpan(snap, "remote:verify") == nil {
		t.Fatalf("no grafted remote:verify span")
	}

	cost := led.Snapshot()
	if cost.RemoteCalls != 2 {
		t.Fatalf("remote calls = %d, want 2", cost.RemoteCalls)
	}
	wantUnits := int64(want.Slots[0].Expanded + vwant.Verified)
	if cost.RemoteWorkUnits != wantUnits {
		t.Fatalf("remote work units = %d, want %d", cost.RemoteWorkUnits, wantUnits)
	}
}

// TestTelemetryByteIdenticalAcrossModes compares Expand/Verify responses
// across telemetry off, telemetry on, and a mixed fleet where the peer is
// a legacy build (Verify only: it cannot expand): the standing invariant
// is byte-identical answers.
func TestTelemetryByteIdenticalAcrossModes(t *testing.T) {
	g := testGraph(32, 80)
	plan := testPlan(t, g, 16)
	_, modern := startServer(t, plan, ServerOptions{})
	legacy := startLegacyPeer(t, plan)

	req := &shard.ExpandRequest{}
	for b := 0; b < plan.NumBlocks(); b++ {
		req.Slots = append(req.Slots, shard.ExpandSlot{Block: b, Frontier: seedFrontier(plan, g.DistinctLabels()[0], b)})
	}
	vreq := &shard.VerifyRequest{Labels: g.DistinctLabels()[:2], DMax: 3, Roots: []graph.V{0, 1, 2, 3}}
	modes := []struct {
		name   string
		addr   string
		sample float64
		expand bool
	}{
		{"telemetry-off", modern, 0, true},
		{"telemetry-on", modern, 1, true},
		{"telemetry-on-legacy-peer", legacy, 1, false},
	}
	var baseline *shard.ExpandResponse
	var vbaseline *shard.VerifyResponse
	for _, m := range modes {
		c := NewClient(ClientOptions{Peers: mustPeers(t, m.addr), TelemetrySample: m.sample})
		bnd := c.For(plan)
		ctx, _, _ := tracedCtx()
		if m.expand {
			resp, err := bnd.Expand(ctx, req)
			if err := expandErr(resp, err); err != nil {
				t.Fatalf("%s expand: %v", m.name, err)
			}
			if baseline == nil {
				baseline = resp
			} else if !reflect.DeepEqual(resp, baseline) {
				t.Fatalf("%s expand answers differ from telemetry-off baseline", m.name)
			}
		}
		vresp, err := bnd.Verify(ctx, vreq)
		if err != nil {
			t.Fatalf("%s verify: %v", m.name, err)
		}
		c.Close()
		if vbaseline == nil {
			vbaseline = vresp
		} else if !reflect.DeepEqual(vresp, vbaseline) {
			t.Fatalf("%s verify answers differ from telemetry-off baseline", m.name)
		}
	}
}

// TestOldClientNewServer speaks the pre-batching protocol over a raw TCP
// connection — empty hello payload, a single-slot Expand under the retired
// message type 3 — and checks the contract: the new server's HelloOK
// base fields still decode with no capability negotiated, the retired
// Expand is refused with a structured bad-request error rather than read
// as something else, and the connection stays in sync. The other
// direction is TestLegacyPeerServesNoPlan.
func TestOldClientNewServer(t *testing.T) {
	g := testGraph(33, 60)
	plan := testPlan(t, g, 16)
	srv, addr := startServer(t, plan, ServerOptions{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)

	roundTrip := func(mt byte, reqID uint64, payload []byte) frame {
		t.Helper()
		if err := writeFrame(w, mt, reqID, payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		fr, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}

	// Old-style hello: nil payload. The base fields must still decode, and
	// the negotiated capability set is empty.
	fr := roundTrip(msgHello, 1, nil)
	if fr.msgType != msgHelloOK {
		t.Fatalf("hello answered with type %d", fr.msgType)
	}
	info, caps, err := decodeHelloOKCaps(fr.payload)
	if err != nil {
		t.Fatalf("old client cannot decode new HelloOK: %v", err)
	}
	if info != srv.Hello() || caps != 0 {
		t.Fatalf("hello info %+v caps %#x, want %+v caps 0", info, caps, srv.Hello())
	}

	// Old-style expand: digest, kw, block, level, frontier under type 3.
	var e enc
	e.u64(plan.Graph().Digest())
	e.u32(0)
	e.u32(0)
	e.u32(0)
	e.vs(seedFrontier(plan, g.DistinctLabels()[0], 0))
	fr = roundTrip(3, 2, e.b)
	if fr.msgType != msgErr {
		t.Fatalf("retired single-slot expand answered with type %d, want an error", fr.msgType)
	}
	var re *RemoteError
	if err := decodeErr(fr.payload); !errors.As(err, &re) || re.Code != ErrCodeBadRequest {
		t.Fatalf("retired expand error = %v, want a bad-request RemoteError", err)
	}
	if fr := roundTrip(msgHello, 3, nil); fr.msgType != msgHelloOK || fr.reqID != 3 {
		t.Fatalf("connection out of sync after the refusal: type %d reqID %d", fr.msgType, fr.reqID)
	}
}

// TestLegacyPeerServesNoPlan: a fleet whose only peer predates batching
// (no capBatch in its hello) does not serve the plan, so the HTTP server
// evaluates sequentially, as for a stale digest; a batching peer beside it
// restores the fleet.
func TestLegacyPeerServesNoPlan(t *testing.T) {
	g := testGraph(39, 60)
	plan := testPlan(t, g, 16)
	legacy := startLegacyPeer(t, plan)
	_, modern := startServer(t, plan, ServerOptions{})

	c := NewClient(ClientOptions{Peers: mustPeers(t, legacy)})
	defer c.Close()
	if c.ServesPlan(plan) {
		t.Fatal("a peer without capBatch was accepted for the plan")
	}
	c2 := NewClient(ClientOptions{Peers: mustPeers(t, legacy+";"+modern)})
	defer c2.Close()
	if !c2.ServesPlan(plan) {
		t.Fatal("a batching peer beside a legacy one should serve the plan")
	}
}

// TestTelemetryTailGarbageIgnored feeds the server expand payloads with
// damaged trailing bytes — wrong magic, truncated tails, oversized trace
// IDs — and checks the answer is always the correct base response: a
// corrupted telemetry header may drop telemetry but never an answer.
func TestTelemetryTailGarbageIgnored(t *testing.T) {
	g := testGraph(34, 60)
	plan := testPlan(t, g, 16)
	local := shard.NewLocal(plan)
	srv := NewServer(plan, ServerOptions{})

	req := slotReq(plan, g.DistinctLabels()[0], 0)
	base := encodeExpand(plan.Graph().Digest(), req)
	want, _ := local.Expand(context.Background(), req)
	wantPayload := encodeExpandOK(want)

	goodTail := appendTelemetry(nil, &Telemetry{TraceID: "abc", ParentSpan: "query", Sampled: true})
	tails := map[string][]byte{
		"wrong-magic":       {0xde, 0xad, 0xbe, 0xef, 1, 2, 3},
		"short-garbage":     {0x01},
		"magic-only":        {0x31, 0x4c, 0x45, 0x54}, // telMagic LE, then nothing
		"truncated-tail":    goodTail[:len(goodTail)-3],
		"empty-trace-id":    appendTelemetry(nil, &Telemetry{TraceID: "", Sampled: true}),
		"oversized-ID":      appendTelemetry(nil, &Telemetry{TraceID: string(make([]byte, 4096)), Sampled: true}),
		"unsampled-sampled": appendTelemetry(nil, &Telemetry{TraceID: "abc", Sampled: false}),
	}
	for name, tail := range tails {
		payload := append(append([]byte{}, base...), tail...)
		mt, out := srv.handle(frame{msgType: msgExpand, reqID: 1, payload: payload})
		if mt != msgExpandOK {
			t.Fatalf("%s: answered type %d (telemetry damage must not fail the request)", name, mt)
		}
		resp, _, err := decodeExpandOKFull(out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(resp, want) {
			t.Fatalf("%s: corrupted tail corrupted the answer", name)
		}
		if !reflect.DeepEqual(out, wantPayload) {
			// None of these tails is a *valid sampled* header, so no summary
			// may be appended either.
			t.Fatalf("%s: response payload gained an unexpected tail", name)
		}
	}

	// And the one valid header: same answer, now with a summary tail.
	payload := append(append([]byte{}, base...), goodTail...)
	mt, out := srv.handle(frame{msgType: msgExpand, reqID: 2, payload: payload})
	if mt != msgExpandOK {
		t.Fatalf("valid tail: answered type %d", mt)
	}
	resp, summary, err := decodeExpandOKFull(out)
	if err != nil || !reflect.DeepEqual(resp, want) {
		t.Fatalf("valid tail: wrong answer (err=%v)", err)
	}
	if len(summary) == 0 {
		t.Fatalf("valid sampled header produced no summary tail")
	}
}

// TestStatsAndFleetSnapshot checks the Stats RPC surfaces serve counters
// through FleetSnapshot, and that a legacy peer is reported without stats
// (and never sent the probe, which would kill its connection).
func TestStatsAndFleetSnapshot(t *testing.T) {
	g := testGraph(35, 60)
	plan := testPlan(t, g, 16)
	_, modern := startServer(t, plan, ServerOptions{})
	legacy := startLegacyPeer(t, plan)

	c := NewClient(ClientOptions{Peers: mustPeers(t, modern+"=0%2;"+legacy+"=1%2")})
	defer c.Close()
	bnd := c.For(plan)
	if err := expandErr(bnd.Expand(context.Background(), slotReq(plan, g.DistinctLabels()[0], 0))); err != nil {
		t.Fatal(err)
	}

	fleet := c.FleetSnapshot(context.Background())
	if len(fleet) != 2 {
		t.Fatalf("fleet rows = %d, want 2", len(fleet))
	}
	mod, leg := fleet[0], fleet[1]
	if !mod.Telemetry || mod.Stats == nil {
		t.Fatalf("modern peer row incomplete: %+v", mod)
	}
	if mod.Stats.Expands < 1 {
		t.Fatalf("modern peer stats did not count the expand: %+v", mod.Stats)
	}
	if mod.Stats.Digest == "" || mod.Stats.Blocks != plan.NumBlocks() || mod.Stats.GOMAXPROCS == 0 {
		t.Fatalf("modern peer stats incomplete: %+v", mod.Stats)
	}
	if leg.Telemetry || leg.Stats != nil {
		t.Fatalf("legacy peer must report no telemetry and no stats: %+v", leg)
	}
	if leg.Digest == "" || leg.NumBlocks != plan.NumBlocks() {
		t.Fatalf("legacy peer hello identity missing: %+v", leg)
	}
}

// TestAttemptSpansNamePeers routes traced calls over one dead and one live
// replica: the trace must hold a peer:<addr> attempt span for each, so a
// retained trace says which peer used up a query's attempts.
func TestAttemptSpansNamePeers(t *testing.T) {
	g := testGraph(36, 60)
	plan := testPlan(t, g, 16)
	_, live := startServer(t, plan, ServerOptions{})
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	c := NewClient(ClientOptions{Peers: mustPeers(t, deadAddr+";"+live)})
	defer c.Close()
	bnd := c.For(plan)

	ctx, tr, _ := tracedCtx()
	for i := 0; i < 6; i++ {
		if err := expandErr(bnd.Expand(ctx, slotReq(plan, g.DistinctLabels()[0], 0))); err != nil {
			t.Fatal(err)
		}
	}
	root := tr.Snapshot()
	for _, addr := range []string{live, deadAddr} {
		if findSpan(root, "peer:"+addr) == nil {
			t.Errorf("no peer:%s attempt span in trace %+v", addr, root)
		}
	}
}

// TestPeerFailureAttribution exhausts dead replicas and checks the
// terminal failure lands on exactly the slots the dead peer's share
// carried, naming their blocks and the peer — what the coordinator unwraps
// into the coverage report's failed_peers. With a live peer serving the
// even blocks beside a dead one serving the odd, the even slots must be
// answered as if nothing failed.
func TestPeerFailureAttribution(t *testing.T) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	g := testGraph(37, 60)
	plan := testPlan(t, g, 16)
	if plan.NumBlocks() < 3 {
		t.Fatalf("plan has %d blocks, the test needs 3", plan.NumBlocks())
	}
	labels := g.DistinctLabels()
	req := &shard.ExpandRequest{Slots: []shard.ExpandSlot{
		{Kw: 0, Block: 1, Frontier: seedFrontier(plan, labels[0], 1)},
		{Kw: 1, Block: 0, Frontier: seedFrontier(plan, labels[1], 0)},
		{Kw: 1, Block: 1, Frontier: seedFrontier(plan, labels[1], 1)},
		{Kw: 0, Block: 2, Frontier: seedFrontier(plan, labels[0], 2)},
	}}

	checkLost := func(t *testing.T, err error, wantBlocks []int) {
		t.Helper()
		var pf interface{ FailedPeers() []string }
		if !asPeerFailure(err, &pf) {
			t.Fatalf("terminal error %T carries no peer attribution: %v", err, err)
		}
		if peers := pf.FailedPeers(); len(peers) != 1 || peers[0] != deadAddr {
			t.Fatalf("failed peers = %v, want [%s]", peers, deadAddr)
		}
		var typed *PeerFailure
		if !errors.As(err, &typed) || !reflect.DeepEqual(typed.Blocks, wantBlocks) {
			t.Fatalf("failure %v names blocks %v, want %v", err, typed, wantBlocks)
		}
	}

	t.Run("whole-fleet", func(t *testing.T) {
		c := NewClient(ClientOptions{Peers: mustPeers(t, deadAddr), CallTimeout: 300 * time.Millisecond})
		defer c.Close()
		resp, err := c.For(plan).Expand(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for i := range resp.Slots {
			checkLost(t, resp.Slots[i].Err, []int{0, 1, 2})
		}
	})

	t.Run("one-share", func(t *testing.T) {
		_, live := startServer(t, plan, ServerOptions{})
		c := NewClient(ClientOptions{Peers: mustPeers(t, live+"=0%2;"+deadAddr+"=1%2"), CallTimeout: 300 * time.Millisecond})
		defer c.Close()
		resp, err := c.For(plan).Expand(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := shard.NewLocal(plan).Expand(context.Background(), req)
		for i, sl := range req.Slots {
			if sl.Block%2 == 1 {
				checkLost(t, resp.Slots[i].Err, []int{1})
				continue
			}
			if !reflect.DeepEqual(resp.Slots[i], want.Slots[i]) {
				t.Fatalf("slot %d (block %d) of the live share: got %+v want %+v", i, sl.Block, resp.Slots[i], want.Slots[i])
			}
		}
	})
}

// asPeerFailure is errors.As via the interface the coordinator uses.
func asPeerFailure(err error, target *interface{ FailedPeers() []string }) bool {
	for err != nil {
		if pf, ok := err.(interface{ FailedPeers() []string }); ok {
			*target = pf
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestChaosMatrixWithTelemetry re-runs the transient-fault chaos matrix
// with telemetry at sample rate 1 and a traced, ledgered context: every
// injected fault — including ones that corrupt the frames carrying
// telemetry tails — must still yield the byte-identical answer within
// budget. Telemetry may degrade silently; answers may not.
func TestChaosMatrixWithTelemetry(t *testing.T) {
	g := testGraph(38, 90)
	q := g.DistinctLabels()[:2]
	want := sequentialAnswer(t, g, q, 5)
	const deadline = 5 * time.Second

	for _, tc := range chaosMatrix {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			firstOnly := func(i int) *faultio.ConnPlan {
				if i == 0 {
					p := tc.plan
					return &p
				}
				return nil
			}
			var srvPick, dialPick func(i int) *faultio.ConnPlan
			if tc.serverSide {
				srvPick = firstOnly
			} else {
				dialPick = firstOnly
			}
			_, addr := chaosServer(t, testPlan(t, g, 16), srvPick)
			var dial func(string, time.Duration) (net.Conn, error)
			if dialPick != nil {
				dial = chaosDial(dialPick)
			}
			c := NewClient(ClientOptions{
				Peers:           mustPeers(t, addr),
				CallTimeout:     500 * time.Millisecond,
				TelemetrySample: 1,
				Dial:            dial,
			})
			defer c.Close()

			got, cov, err := runQueryTraced(t, g, q, func(p *shard.Plan) shard.ShardServer { return c.For(p) }, deadline)
			if err != nil {
				t.Fatalf("query error: %v", err)
			}
			if cov != nil {
				t.Fatalf("transient fault should not degrade: %+v", cov)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("answer differs with telemetry on\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// runQueryTraced is chaos_test's runQuery with a trace and ledger in the
// context, so telemetry heads actually ride the wire.
func runQueryTraced(t *testing.T, g *graph.Graph, q []graph.Label, factory func(*shard.Plan) shard.ShardServer, timeout time.Duration) ([]search.Match, *shard.CoverageReport, error) {
	t.Helper()
	algo := shard.New(shard.ModeBKWS, 4, shard.Options{Workers: 4, BlockSize: 16, Server: factory})
	prep, err := algo.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cov := shard.NewCoverage()
	ctx = shard.ContextWithCoverage(ctx, cov)
	tctx, _, _ := tracedCtx()
	ctx = obs.ContextWithSpan(ctx, obs.SpanFromContext(tctx))
	ctx = obs.ContextWithLedger(ctx, obs.LedgerFromContext(tctx))
	got, err := prep.(interface {
		SearchCtx(context.Context, []graph.Label, int) ([]search.Match, error)
	}).SearchCtx(ctx, q, 5)
	return got, cov.Report(), err
}
