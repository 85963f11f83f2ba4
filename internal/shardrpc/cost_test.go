package shardrpc

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
	"bigindex/internal/shard"
)

// TestOneFramePerPeerPerRound pins the fleet's cost model: a round is one
// Expand call, which the client splits into one frame per replica set.
// Against a two-peer modulo split, exhaustive sharded bkws over many small
// blocks must send at most two Expand frames per round, counted from the
// per-peer attempt metric, while each round carries many more slots than
// that.
func TestOneFramePerPeerPerRound(t *testing.T) {
	g := testGraph(40, 400)
	plan := testPlan(t, g, 8)
	_, a := startServer(t, plan, ServerOptions{})
	_, b := startServer(t, plan, ServerOptions{})
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c := NewClient(ClientOptions{Peers: mustPeers(t, a+"=0%2;"+b+"=1%2"), BlockSize: 8, Metrics: m})
	defer c.Close()
	smet := shard.NewMetrics(reg)
	prep, err := shard.New(shard.ModeBKWS, 4, shard.Options{Workers: 2, BlockSize: 8, Server: c.For, Metrics: smet}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	labels := g.DistinctLabels()
	for i := 0; i+1 < len(labels); i++ {
		if _, err := prep.Search([]graph.Label{labels[i], labels[i+1]}, 0); err != nil {
			t.Fatal(err)
		}
	}
	frames := int64(0)
	for _, addr := range []string{a, b} {
		for _, outcome := range []string{"ok", "remote_error", "network_error"} {
			frames += m.PeerCalls.With(addr, "expand", outcome).Value()
		}
	}
	rounds, slots := int64(smet.Rounds.Sum()), smet.Tasks.Value()
	t.Logf("%d blocks: %d rounds, %d slots, %d Expand frames", plan.NumBlocks(), rounds, slots, frames)
	if rounds == 0 || slots <= 4*rounds {
		t.Fatalf("%d slots over %d rounds: too few slots per round to tell batched from per-slot dispatch", slots, rounds)
	}
	if frames > 2*rounds {
		t.Fatalf("%d Expand frames for %d rounds on 2 peers: more than one frame per peer per round", frames, rounds)
	}
}

// TestWarmPoolDialsNothing drives concurrent sharded queries through a
// counting Dial hook. Once the pool holds as many connections as the
// queries run concurrently, no call dials: the client keeps every healthy
// connection it opened, instead of closing those beyond a fixed idle cap
// and dialing them again on the next burst. The slow peer makes the
// queries' calls overlap.
func TestWarmPoolDialsNothing(t *testing.T) {
	g := testGraph(41, 200)
	plan := testPlan(t, g, 16)
	srv := NewServer(plan, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeListener(&slowListener{Listener: ln, delay: 5 * time.Millisecond})
	defer srv.Close()

	var dials atomic.Int64
	c := NewClient(ClientOptions{
		Peers: mustPeers(t, ln.Addr().String()),
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	defer c.Close()

	// Warm-up: open one connection per concurrent query and pool them all.
	const concurrent = 4
	p := c.peers[0]
	var warm []*pconn
	for i := 0; i < concurrent; i++ {
		pc, err := c.getConn(p, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, pc)
	}
	for _, pc := range warm {
		c.putConn(p, pc)
	}
	warmDials := dials.Load()

	prep, err := shard.New(shard.ModeBKWS, 4, shard.Options{Workers: 1, BlockSize: 16, Server: c.For}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	labels := g.DistinctLabels()
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for w := 0; w < concurrent; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := shard.ContextWithCoverage(context.Background(), shard.NewCoverage())
			for i := 0; i < 3; i++ {
				q := []graph.Label{labels[(w+i)%len(labels)], labels[(w+i+1)%len(labels)]}
				if _, err := prep.(interface {
					SearchCtx(context.Context, []graph.Label, int) ([]search.Match, error)
				}).SearchCtx(ctx, q, 0); err != nil {
					errs <- err
					return
				}
				if rep := shard.CoverageFromContext(ctx).Report(); rep != nil {
					errs <- fmt.Errorf("healthy fleet lost coverage: %+v", rep)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := dials.Load() - warmDials; n != 0 {
		t.Fatalf("%d dials after warm-up with %d pooled connections for %d concurrent queries", n, concurrent, concurrent)
	}
}
