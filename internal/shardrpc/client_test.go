package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/retry"
	"bigindex/internal/shard"
)

// testGraph builds a deterministic random graph (mirrors the shard
// package's generator shape).
func testGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(nil)
	labels := make([]graph.Label, 5)
	for i := range labels {
		labels[i] = b.Dict().Intern(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		b.AddVertexLabel(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < 3*n; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	return b.Build()
}

func testPlan(t *testing.T, g *graph.Graph, blockSize int) *shard.Plan {
	t.Helper()
	return shard.NewPlanner(shard.Options{BlockSize: blockSize}).PlanGraph(g)
}

func startServer(t *testing.T, plan *shard.Plan, opt ServerOptions) (*Server, string) {
	t.Helper()
	srv := NewServer(plan, opt)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func mustPeers(t *testing.T, spec string) []Peer {
	t.Helper()
	peers, err := ParsePeers(spec)
	if err != nil {
		t.Fatal(err)
	}
	return peers
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("h1:9001; h2:9002=0%2 ; h3:9003=1-3,7")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 {
		t.Fatalf("got %d peers", len(peers))
	}
	if !peers[0].Spec.All || peers[0].Addr != "h1:9001" {
		t.Fatalf("peer 0: %+v", peers[0])
	}
	if peers[1].Spec.Mod != 2 || peers[1].Spec.Rem != 0 || !peers[1].Spec.Covers(4) || peers[1].Spec.Covers(3) {
		t.Fatalf("peer 1: %+v", peers[1])
	}
	if got := peers[2].Spec.String(); got != "1-3,7" {
		t.Fatalf("peer 2 spec renders %q", got)
	}
	if peers[2].Spec.Covers(4) || !peers[2].Spec.Covers(7) || !peers[2].Spec.Covers(2) {
		t.Fatalf("peer 2 coverage wrong: %+v", peers[2])
	}

	// File form with comments.
	path := filepath.Join(t.TempDir(), "peers.conf")
	os.WriteFile(path, []byte("# fleet\nh1:9001 = all\nh2:9002=1%2 # odd blocks\n"), 0o644)
	peers, err = ParsePeers("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || !peers[0].Spec.All || peers[1].Spec.Mod != 2 {
		t.Fatalf("file form parsed %+v", peers)
	}

	for _, bad := range []string{"", "h=5%2", "h=2-1", "h=x", "=all", "@/does/not/exist"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

func TestAttemptSlice(t *testing.T) {
	if got := attemptSlice(400*time.Millisecond, 4, 25*time.Millisecond); got != 100*time.Millisecond {
		t.Fatalf("even carve = %v", got)
	}
	if got := attemptSlice(40*time.Millisecond, 4, 25*time.Millisecond); got != 25*time.Millisecond {
		t.Fatalf("floor = %v", got)
	}
	if got := attemptSlice(10*time.Millisecond, 4, 25*time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("floor must not exceed remaining: %v", got)
	}
}

// TestClientMatchesLocal runs a real batched Expand — every block, two
// keywords — and a Verify over TCP against a modulo block split, and
// checks the responses equal the in-process shard.Local's: the client
// splits the round between the peers and reassembles it in slot order.
func TestClientMatchesLocal(t *testing.T) {
	g := testGraph(1, 80)
	plan := testPlan(t, g, 16)
	nb := plan.NumBlocks()
	local := shard.NewLocal(plan)

	evens, odds := []int{}, []int{}
	for b := 0; b < nb; b++ {
		if b%2 == 0 {
			evens = append(evens, b)
		} else {
			odds = append(odds, b)
		}
	}
	_, addrA := startServer(t, plan, ServerOptions{Blocks: evens})
	_, addrB := startServer(t, plan, ServerOptions{Blocks: odds})

	c := NewClient(ClientOptions{Peers: mustPeers(t, fmt.Sprintf("%s=0%%2;%s=1%%2", addrA, addrB))})
	defer c.Close()
	if !c.ServesPlan(plan) {
		t.Fatal("split fleet should serve the plan")
	}
	srv := c.For(plan)

	ctx := context.Background()
	labels := g.DistinctLabels()
	req := &shard.ExpandRequest{Level: 1}
	for kw := 0; kw < 2; kw++ {
		for b := 0; b < nb; b++ {
			req.Slots = append(req.Slots, shard.ExpandSlot{Kw: kw, Block: b, Frontier: seedFrontier(plan, labels[kw], b)})
		}
	}
	want, err := local.Expand(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Expand(ctx, req)
	if err := expandErr(got, err); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched expand: got %+v want %+v", got, want)
	}
	vreq := &shard.VerifyRequest{Labels: labels[:2], DMax: 3, Roots: []graph.V{0, 1, 2, 3, 4}}
	vwant, err := local.Verify(ctx, vreq)
	if err != nil {
		t.Fatal(err)
	}
	vgot, err := srv.Verify(ctx, vreq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vgot, vwant) {
		t.Fatalf("verify: got %+v want %+v", vgot, vwant)
	}
}

// slotReq is a one-slot round: keyword 0 expanding block b's vertices
// labelled l.
func slotReq(plan *shard.Plan, l graph.Label, b int) *shard.ExpandRequest {
	return &shard.ExpandRequest{Slots: []shard.ExpandSlot{{Block: b, Frontier: seedFrontier(plan, l, b)}}}
}

// expandErr is the first failure an Expand reports, for the whole call or
// for one of its slots.
func expandErr(resp *shard.ExpandResponse, err error) error {
	if err != nil {
		return err
	}
	for _, r := range resp.Slots {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// seedFrontier gives a deterministic nonempty-ish frontier for block b.
func seedFrontier(plan *shard.Plan, l graph.Label, b int) []graph.V {
	var out []graph.V
	part := plan.Partitioning()
	g := plan.Graph()
	for v := 0; v < g.NumVertices(); v++ {
		if part.BlockOf[v] == b && g.Label(graph.V(v)) == l {
			out = append(out, graph.V(v))
		}
	}
	return out
}

// TestClientFailoverToReplica points the client at one dead address and
// one live server: calls must succeed via failover, and the dead peer's
// breaker must accumulate failures.
func TestClientFailoverToReplica(t *testing.T) {
	g := testGraph(2, 60)
	plan := testPlan(t, g, 16)
	_, live := startServer(t, plan, ServerOptions{})

	// A listener we close immediately: connection refused, fast.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	reg := obs.NewRegistry()
	c := NewClient(ClientOptions{
		Peers:   mustPeers(t, deadAddr+";"+live),
		Metrics: NewMetrics(reg),
	})
	defer c.Close()
	srv := c.For(plan)
	for i := 0; i < 6; i++ {
		req := slotReq(plan, g.DistinctLabels()[0], 0)
		if err := expandErr(srv.Expand(context.Background(), req)); err != nil {
			t.Fatalf("call %d failed despite a live replica: %v", i, err)
		}
	}
	var deadHealth PeerHealth
	for _, h := range c.Health() {
		if h.Addr == deadAddr {
			deadHealth = h
		}
	}
	if deadHealth.Addr == "" || deadHealth.Fails == 0 {
		t.Fatalf("dead peer health not recorded: %+v", c.Health())
	}
	if c.opt.Metrics.Retries.Value() == 0 {
		t.Fatal("failover attempts should count as retries")
	}
}

// TestClientBreakerOpensAndRecovers starts with the network down,
// watches the breaker open (and CoverageFloor hit zero), then brings it
// up and watches the half-open probe close the breaker again.
func TestClientBreakerOpensAndRecovers(t *testing.T) {
	g := testGraph(3, 60)
	plan := testPlan(t, g, 16)
	_, addr := startServer(t, plan, ServerOptions{})

	deadFlag := atomic.Bool{}
	deadFlag.Store(true)
	c := NewClient(ClientOptions{
		Peers:            mustPeers(t, addr),
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Millisecond,
		CallTimeout:      300 * time.Millisecond,
		Dial: func(a string, timeout time.Duration) (net.Conn, error) {
			if deadFlag.Load() {
				return nil, fmt.Errorf("injected: network down")
			}
			return net.DialTimeout("tcp", a, timeout)
		},
	})
	defer c.Close()
	bnd := c.For(plan)
	req := slotReq(plan, g.DistinctLabels()[0], 0)

	for i := 0; i < 4 && c.peers[0].breaker.State() != retry.Open; i++ {
		if err := expandErr(bnd.Expand(context.Background(), req)); err == nil {
			t.Fatal("dead network call should fail")
		}
	}
	if got := c.peers[0].breaker.State(); got != retry.Open {
		t.Fatalf("breaker state = %v, want open", got)
	}
	if c.CoverageFloor() != 0 {
		t.Fatalf("floor with whole fleet down = %v, want 0", c.CoverageFloor())
	}
	if h := c.Health()[0]; h.State != "open-breaker" || h.LastErr == "" {
		t.Fatalf("health = %+v", h)
	}

	deadFlag.Store(false)
	time.Sleep(35 * time.Millisecond) // past the cooldown
	if err := expandErr(bnd.Expand(context.Background(), req)); err != nil {
		t.Fatalf("half-open probe should succeed: %v", err)
	}
	if got := c.peers[0].breaker.State(); got != retry.Closed {
		t.Fatalf("breaker after recovery = %v, want closed", got)
	}
	if h := c.Health()[0]; h.State != "healthy" {
		t.Fatalf("health after recovery = %+v", h)
	}
	if c.CoverageFloor() != 1 {
		t.Fatalf("healthy floor = %v", c.CoverageFloor())
	}
}

// TestClientNoHangPastDeadline points the client at a black hole — a
// listener that accepts and never answers — and checks the call respects
// the context deadline instead of hanging.
func TestClientNoHangPastDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { // swallow requests forever
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()

	g := testGraph(4, 40)
	plan := testPlan(t, g, 16)
	c := NewClient(ClientOptions{Peers: mustPeers(t, ln.Addr().String())})
	defer c.Close()
	bnd := c.For(plan)

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = expandErr(bnd.Expand(ctx, &shard.ExpandRequest{Slots: []shard.ExpandSlot{{Block: 0, Frontier: []graph.V{0}}}}))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("black-holed call should fail")
	}
	if elapsed > 1200*time.Millisecond {
		t.Fatalf("call held for %v, far past the 400ms budget", elapsed)
	}
}

// TestServesPlan: matching fleet yes, mismatched digest no, fully
// unreachable fleet optimistic-yes.
func TestServesPlan(t *testing.T) {
	g := testGraph(5, 60)
	plan := testPlan(t, g, 16)
	_, addr := startServer(t, plan, ServerOptions{})

	c := NewClient(ClientOptions{Peers: mustPeers(t, addr)})
	defer c.Close()
	if !c.ServesPlan(plan) {
		t.Fatal("matching fleet rejected")
	}

	other := testPlan(t, testGraph(6, 61), 16)
	c2 := NewClient(ClientOptions{Peers: mustPeers(t, addr)})
	defer c2.Close()
	if c2.ServesPlan(other) {
		t.Fatal("digest mismatch accepted")
	}

	dead, _ := net.Listen("tcp", "127.0.0.1:0")
	deadAddr := dead.Addr().String()
	dead.Close()
	c3 := NewClient(ClientOptions{Peers: mustPeers(t, deadAddr), DialTimeout: 50 * time.Millisecond})
	defer c3.Close()
	if !c3.ServesPlan(plan) {
		t.Fatal("unreachable fleet must be optimistic (degrade at query time instead)")
	}
}

// TestStaleReplicaFailsOver: one replica serves yesterday's graph, the
// other today's. Calls planned against today's digest must come from the
// fresh replica — the stale one answers errStale and is skipped, never
// mixed in.
func TestStaleReplicaFailsOver(t *testing.T) {
	gOld := testGraph(7, 60)
	gNew := testGraph(8, 60)
	planOld := testPlan(t, gOld, 16)
	planNew := testPlan(t, gNew, 16)
	_, stale := startServer(t, planOld, ServerOptions{})
	_, fresh := startServer(t, planNew, ServerOptions{})

	c := NewClient(ClientOptions{Peers: mustPeers(t, stale+";"+fresh)})
	defer c.Close()
	bnd := c.For(planNew)
	local := shard.NewLocal(planNew)
	for i := 0; i < 6; i++ { // rotation guarantees some calls start at the stale peer
		req := slotReq(planNew, gNew.DistinctLabels()[0], 0)
		got, err := bnd.Expand(context.Background(), req)
		if err := expandErr(got, err); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		want, _ := local.Expand(context.Background(), req)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d answered by the wrong graph version", i)
		}
	}
}

// TestHedgingWinsOnSlowReplica wires one deliberately slow replica and
// one fast one with hedging on: hedged attempts must fire and win.
func TestHedgingWinsOnSlowReplica(t *testing.T) {
	g := testGraph(9, 60)
	plan := testPlan(t, g, 16)

	slowSrv := NewServer(plan, ServerOptions{})
	slowLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slowSrv.ServeListener(&slowListener{Listener: slowLn, delay: 150 * time.Millisecond})
	defer slowSrv.Close()
	_, fast := startServer(t, plan, ServerOptions{})

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c := NewClient(ClientOptions{
		Peers:      mustPeers(t, slowLn.Addr().String()+";"+fast),
		Hedge:      true,
		HedgeDelay: 10 * time.Millisecond,
		Metrics:    m,
	})
	defer c.Close()
	bnd := c.For(plan)
	req := slotReq(plan, g.DistinctLabels()[0], 0)
	local := shard.NewLocal(plan)
	want, _ := local.Expand(context.Background(), req)
	for i := 0; i < 6; i++ {
		got, err := bnd.Expand(context.Background(), req)
		if err := expandErr(got, err); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hedged call %d wrong answer", i)
		}
	}
	if m.Hedges.With("won").Value() == 0 {
		t.Fatal("no hedge ever won despite a 150ms-slow primary")
	}
}

// TestUnsentHedgeLeavesProbeSlot: picking a hedge candidate must not claim
// the half-open probe of a recovering peer — when the primary answers
// before the hedge delay the hedge is never sent, and a claimed probe
// would never resolve, parking the peer (and everyone waiting on its
// probe) in half-open for good.
func TestUnsentHedgeLeavesProbeSlot(t *testing.T) {
	g := testGraph(10, 60)
	plan := testPlan(t, g, 16)
	_, a := startServer(t, plan, ServerOptions{})
	_, b := startServer(t, plan, ServerOptions{})
	c := NewClient(ClientOptions{
		Peers:            mustPeers(t, a+";"+b),
		Hedge:            true,
		HedgeDelay:       time.Minute, // the primary always answers first
		BreakerThreshold: 1,
		BreakerCooldown:  time.Millisecond,
	})
	defer c.Close()
	bnd := c.For(plan)
	req := slotReq(plan, g.DistinctLabels()[0], 0)

	recovering := c.peers[1].breaker
	recovering.Failure()
	time.Sleep(5 * time.Millisecond) // past the cooldown: probeable
	c.rr.Store(1)                    // next call starts its rotation at peers[0]
	if err := expandErr(bnd.Expand(context.Background(), req)); err != nil {
		t.Fatal(err)
	}
	if st := recovering.State(); st != retry.Open {
		t.Fatalf("hedge candidate's breaker is %v after an unsent hedge, want open", st)
	}
	if ok, _ := recovering.Allow(); !ok {
		t.Fatal("probe slot of the recovering peer is gone")
	}
}

// slowListener delays responses by sleeping before the handshake's
// first server write (wrapping each accepted conn with a write delay).
type slowListener struct {
	net.Listener
	delay time.Duration
}

func (l *slowListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &slowConn{Conn: conn, delay: l.delay}, nil
}

type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c *slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// TestServerRefusesForeignSlots: a slot naming a block the server does not
// serve, a block out of range, or a frontier vertex outside its block (or
// outside the graph) is refused as a bad request, never expanded — the
// block's sub-index has no row for such a vertex.
func TestServerRefusesForeignSlots(t *testing.T) {
	g := testGraph(12, 60)
	plan := testPlan(t, g, 16)
	srv := NewServer(plan, ServerOptions{Blocks: []int{0}})
	blockOf := plan.Partitioning().BlockOf
	var inOther graph.V
	for v, b := range blockOf {
		if b != 0 {
			inOther = graph.V(v)
			break
		}
	}
	good := seedFrontier(plan, g.DistinctLabels()[0], 0)
	for name, sl := range map[string]shard.ExpandSlot{
		"unserved block":          {Block: 1, Frontier: nil},
		"block out of range":      {Block: plan.NumBlocks(), Frontier: nil},
		"vertex of another block": {Block: 0, Frontier: append(append([]graph.V{}, good...), inOther)},
		"vertex outside graph":    {Block: 0, Frontier: []graph.V{graph.V(g.NumVertices())}},
	} {
		req := &shard.ExpandRequest{Slots: []shard.ExpandSlot{{Block: 0, Frontier: good}, sl}}
		mt, out := srv.handle(frame{msgType: msgExpand, reqID: 1, payload: encodeExpand(plan.Graph().Digest(), req)})
		var re *RemoteError
		if mt != msgErr || !errors.As(decodeErr(out), &re) || re.Code != ErrCodeBadRequest {
			t.Fatalf("%s: answered type %d, want a bad-request error", name, mt)
		}
	}
	req := &shard.ExpandRequest{Slots: []shard.ExpandSlot{{Block: 0, Frontier: good}}}
	if mt, _ := srv.handle(frame{msgType: msgExpand, reqID: 2, payload: encodeExpand(plan.Graph().Digest(), req)}); mt != msgExpandOK {
		t.Fatalf("well-formed slot answered type %d", mt)
	}
}
