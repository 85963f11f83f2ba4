package shardrpc

import (
	"context"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bigindex/internal/faultio"
	"bigindex/internal/graph"
	"bigindex/internal/search"
	"bigindex/internal/search/bkws"
	"bigindex/internal/shard"
)

// chaosCase is one deterministic network fault, injectable on the server
// side (responses mangled) or the client side (requests mangled).
type chaosCase struct {
	name       string
	serverSide bool
	plan       faultio.ConnPlan
}

// chaosMatrix covers every ConnPlan fault at several protocol offsets:
// inside the length prefix (offset < 4), inside the frame body, and deep
// into a multi-frame stream.
var chaosMatrix = []chaosCase{
	{"server-delay", true, faultio.ConnPlan{DelayWrites: 15 * time.Millisecond}},
	{"server-duplicate-frames", true, faultio.ConnPlan{DuplicateWrites: true}},
	{"server-corrupt-len-prefix", true, faultio.ConnPlan{CorruptWriteAt: 2}},
	{"server-corrupt-frame-body", true, faultio.ConnPlan{CorruptWriteAt: 15}},
	{"server-corrupt-late", true, faultio.ConnPlan{CorruptWriteAt: 300}},
	{"server-truncate-and-close", true, faultio.ConnPlan{WriteBudget: 10, CloseAfterBudget: true}},
	{"server-blackhole", true, faultio.ConnPlan{WriteBudget: 10}},
	{"client-corrupt-request", false, faultio.ConnPlan{CorruptWriteAt: 6}},
	{"client-truncate-request", false, faultio.ConnPlan{WriteBudget: 5, CloseAfterBudget: true}},
	{"client-blackhole-request", false, faultio.ConnPlan{WriteBudget: 5}},
	{"client-dup-delay-request", false, faultio.ConnPlan{DuplicateWrites: true, DelayWrites: 5 * time.Millisecond}},
}

// chaosServer starts a server whose accepted connections are shaped by
// plans (nil return: clean connection).
func chaosServer(t *testing.T, plan *shard.Plan, pick func(i int) *faultio.ConnPlan) (*Server, string) {
	t.Helper()
	srv := NewServer(plan, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeListener(&faultio.FaultListener{Listener: ln, Plan: pick})
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// chaosDial wraps the client's dialed connections with plans by dial
// order (nil: clean).
func chaosDial(pick func(i int) *faultio.ConnPlan) func(string, time.Duration) (net.Conn, error) {
	var n atomic.Int64
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		if p := pick(int(n.Add(1)) - 1); p != nil {
			return faultio.WrapConn(conn, *p), nil
		}
		return conn, nil
	}
}

// runQuery executes one full sharded query through the given
// ShardServer factory, returning matches plus the coverage report.
func runQuery(t *testing.T, g *graph.Graph, q []graph.Label, factory func(*shard.Plan) shard.ShardServer, timeout time.Duration) ([]search.Match, *shard.CoverageReport, error) {
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
	got, err := prep.(interface {
		SearchCtx(context.Context, []graph.Label, int) ([]search.Match, error)
	}).SearchCtx(ctx, q, 5)
	return got, cov.Report(), err
}

// sequentialAnswer is the byte-identical ground truth (top-5, like the
// chaos queries) for healthy runs; k <= 0 gives the exhaustive answer
// set soundness checks need (a degraded run may return true matches
// that rank below the full graph's top-5).
func sequentialAnswer(t *testing.T, g *graph.Graph, q []graph.Label, k int) []search.Match {
	t.Helper()
	prep, err := bkws.New(4).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prep.Search(q, k)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// assertSound checks every returned match is a true full-graph answer
// with its exact score — the degraded-mode contract.
func assertSound(t *testing.T, label string, got, truth []search.Match) {
	t.Helper()
	byRoot := make(map[graph.V]search.Match, len(truth))
	for _, m := range truth {
		byRoot[m.Root] = m
	}
	for _, m := range got {
		want, ok := byRoot[m.Root]
		if !ok {
			t.Fatalf("%s: root %d is not an answer of the full graph", label, m.Root)
		}
		if !reflect.DeepEqual(m.Dists, want.Dists) || m.Score != want.Score {
			t.Fatalf("%s: root %d has dists %v score %v, truth %v %v", label, m.Root, m.Dists, m.Score, want.Dists, want.Score)
		}
	}
}

// TestChaosMatrixTransientFault injects each fault into the FIRST
// connection only, against a single replica: the client must retry onto
// a clean connection and produce a byte-identical answer.
func TestChaosMatrixTransientFault(t *testing.T) {
	g := testGraph(20, 90)
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
				Peers:       mustPeers(t, addr),
				CallTimeout: 500 * time.Millisecond,
				Dial:        dial,
			})
			defer c.Close()

			start := time.Now()
			got, cov, err := runQuery(t, g, q, func(p *shard.Plan) shard.ShardServer { return c.For(p) }, deadline)
			if err != nil {
				t.Fatalf("query error: %v", err)
			}
			if elapsed := time.Since(start); elapsed > deadline+time.Second {
				t.Fatalf("query ran %v, past deadline+grace", elapsed)
			}
			if cov != nil {
				t.Fatalf("transient fault should not degrade: %+v", cov)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("answer differs after retry\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// TestChaosMatrixPersistentFaultWithReplica injects each fault into
// EVERY connection touching replica A, with clean replica B alongside:
// failover must still produce a byte-identical answer.
func TestChaosMatrixPersistentFaultWithReplica(t *testing.T) {
	g := testGraph(21, 90)
	q := g.DistinctLabels()[:2]
	want := sequentialAnswer(t, g, q, 5)
	const deadline = 8 * time.Second

	for _, tc := range chaosMatrix {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan := testPlan(t, g, 16)
			every := func(i int) *faultio.ConnPlan { p := tc.plan; return &p }
			var srvAPick func(i int) *faultio.ConnPlan
			if tc.serverSide {
				srvAPick = every
			}
			_, addrA := chaosServer(t, plan, srvAPick)
			_, addrB := startServer(t, plan, ServerOptions{})
			var dial func(string, time.Duration) (net.Conn, error)
			if !tc.serverSide {
				// Client-side faults on every conn dialed to A only.
				var n atomic.Int64
				dial = func(addr string, timeout time.Duration) (net.Conn, error) {
					conn, err := net.DialTimeout("tcp", addr, timeout)
					if err != nil {
						return nil, err
					}
					if addr == addrA {
						n.Add(1)
						return faultio.WrapConn(conn, tc.plan), nil
					}
					return conn, nil
				}
			}
			c := NewClient(ClientOptions{
				Peers:       mustPeers(t, addrA+";"+addrB),
				CallTimeout: 500 * time.Millisecond,
				Dial:        dial,
			})
			defer c.Close()

			start := time.Now()
			got, cov, err := runQuery(t, g, q, func(p *shard.Plan) shard.ShardServer { return c.For(p) }, deadline)
			if err != nil {
				t.Fatalf("query error: %v", err)
			}
			if elapsed := time.Since(start); elapsed > deadline+time.Second {
				t.Fatalf("query ran %v, past deadline+grace", elapsed)
			}
			if cov != nil {
				t.Fatalf("replica should absorb a persistent fault: %+v", cov)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("answer differs under failover\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// TestChaosTotalLossDegradesInTime black-holes the only replica after
// its first connection: the query must come back within the deadline,
// sound, with coverage honestly below full.
func TestChaosTotalLossDegradesInTime(t *testing.T) {
	g := testGraph(22, 90)
	q := g.DistinctLabels()[:2]
	truth := sequentialAnswer(t, g, q, 0)
	plan := testPlan(t, g, 16)

	// Every connection is a black hole: accepted, requests swallowed.
	_, addr := chaosServer(t, plan, func(i int) *faultio.ConnPlan {
		return &faultio.ConnPlan{WriteBudget: 1}
	})
	c := NewClient(ClientOptions{
		Peers:       mustPeers(t, addr),
		CallTimeout: 250 * time.Millisecond,
	})
	defer c.Close()

	const deadline = 4 * time.Second
	start := time.Now()
	got, cov, err := runQuery(t, g, q, func(p *shard.Plan) shard.ShardServer { return c.For(p) }, deadline)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("total loss must degrade, not error: %v", err)
	}
	if elapsed > deadline+time.Second {
		t.Fatalf("query ran %v, past deadline+grace", elapsed)
	}
	if cov == nil || !(cov.Fraction < 1 || cov.RootsUnverified > 0) {
		t.Fatalf("coverage claims full despite a dead fleet: %+v", cov)
	}
	if cov.BlocksLost == 0 && cov.RootsUnverified == 0 {
		t.Fatalf("no loss recorded: %+v", cov)
	}
	assertSound(t, "total-loss", got, truth)
}

// killAtRound wraps a bound ShardServer and fires kill exactly once, as
// the nth Expand call (round n-1) is dispatched — killing the server
// process mid-query, with that round's frame on its way and every earlier
// round's answer already settled.
type killAtRound struct {
	inner shard.ShardServer
	kill  func()
	n     int32
	seen  atomic.Int32
}

func (k *killAtRound) Expand(ctx context.Context, req *shard.ExpandRequest) (*shard.ExpandResponse, error) {
	if k.seen.Add(1) == k.n {
		k.kill()
	}
	return k.inner.Expand(ctx, req)
}

func (k *killAtRound) Verify(ctx context.Context, req *shard.VerifyRequest) (*shard.VerifyResponse, error) {
	return k.inner.Verify(ctx, req)
}

// TestMidRoundKillFailsOverToReplica kills replica A (abruptly, linger
// zero) as the first round is dispatched, with replica B alive: the query
// must still be byte-identical with full coverage.
func TestMidRoundKillFailsOverToReplica(t *testing.T) {
	g := testGraph(23, 120)
	q := g.DistinctLabels()[:2]
	want := sequentialAnswer(t, g, q, 5)
	plan := testPlan(t, g, 16)

	srvA, addrA := startServer(t, plan, ServerOptions{})
	_, addrB := startServer(t, plan, ServerOptions{})
	c := NewClient(ClientOptions{
		Peers:       mustPeers(t, addrA+";"+addrB),
		CallTimeout: 500 * time.Millisecond,
	})
	defer c.Close()

	got, cov, err := runQuery(t, g, q, func(p *shard.Plan) shard.ShardServer {
		return &killAtRound{inner: c.For(p), kill: srvA.Kill, n: 1}
	}, 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cov != nil {
		t.Fatalf("replica must sustain full coverage through the kill: %+v", cov)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answer differs after mid-round kill\n got: %v\nwant: %v", got, want)
	}
}

// TestMidRoundKillDegradesThenRecovers kills the ONLY shard server
// mid-query: the query must return within its deadline, degraded with
// accurate coverage and only-true answers. After a restart on the same
// address, the next query must be byte-identical with clean coverage.
func TestMidRoundKillDegradesThenRecovers(t *testing.T) {
	g := testGraph(24, 120)
	q := g.DistinctLabels()[:2]
	truth := sequentialAnswer(t, g, q, 0)
	plan := testPlan(t, g, 16)

	srv, addr := startServer(t, plan, ServerOptions{})
	c := NewClient(ClientOptions{
		Peers:       mustPeers(t, addr),
		CallTimeout: 250 * time.Millisecond,
		// Keep the breaker out of the recovery's way: this test pins the
		// retry/degrade path, the breaker has its own test.
		BreakerThreshold: 1000,
	})
	defer c.Close()

	const deadline = 4 * time.Second
	start := time.Now()
	got, cov, err := runQuery(t, g, q, func(p *shard.Plan) shard.ShardServer {
		return &killAtRound{inner: c.For(p), kill: srv.Kill, n: 1}
	}, deadline)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("killed-shard query must degrade, not error: %v", err)
	}
	if elapsed > deadline+time.Second {
		t.Fatalf("query ran %v, past deadline+grace", elapsed)
	}
	if cov == nil || !(cov.Fraction < 1 || cov.RootsUnverified > 0) {
		t.Fatalf("kill left no coverage trace: %+v", cov)
	}
	assertSound(t, "mid-round kill", got, truth)

	// Restart on the same address and verify full recovery.
	srv2 := NewServer(plan, ServerOptions{})
	var lerr error
	for i := 0; i < 20; i++ { // the old port can take a moment to free
		if _, lerr = srv2.Listen(addr); lerr == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if lerr != nil {
		t.Fatalf("restart on %s: %v", addr, lerr)
	}
	defer srv2.Close()

	want := sequentialAnswer(t, g, q, 5)
	got2, cov2, err := runQuery(t, g, q, func(p *shard.Plan) shard.ShardServer { return c.For(p) }, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if cov2 != nil {
		t.Fatalf("post-restart query still degraded: %+v", cov2)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("post-restart answer differs\n got: %v\nwant: %v", got2, want)
	}
}
