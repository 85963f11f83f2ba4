package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"

	"bigindex/internal/core"
	"bigindex/internal/obs"
	"bigindex/internal/search"
	"bigindex/internal/search/bidir"
	"bigindex/internal/search/bkws"
	"bigindex/internal/search/blinks"
	"bigindex/internal/server"
	"bigindex/internal/shard"
	"bigindex/internal/shardrpc"
	"bigindex/internal/wal"
)

// Search parameters, the server's own defaults.
const (
	dmax      = 4
	blockSize = 200
)

// newAlgo builds a sequential algorithm the way server.Server does.
func newAlgo(name string) search.Algorithm {
	switch name {
	case "bkws":
		return bkws.New(dmax)
	case "bidir":
		return bidir.New(dmax)
	default:
		return blinks.New(blinks.Options{DMax: dmax, BlockSize: blockSize})
	}
}

// newEvaluator mirrors server.Server.evaluator for the non-rclique
// algorithms: exhaustive evaluation, k applied at result time.
func newEvaluator(idx *core.Index, algo search.Algorithm) *core.Evaluator {
	opt := core.DefaultEvalOptions()
	opt.DegreeExponent = 1
	return core.NewEvaluator(idx, algo, opt)
}

// fleet is two in-process shardrpc servers on loopback TCP and the client
// that fans out to them: the full wire path (framing, CRC, digest checks,
// pooling, retries) without scheduler noise from extra processes.
type fleet struct {
	servers []*shardrpc.Server
	client  *shardrpc.Client
	metrics *shardrpc.Metrics
	addrs   []string
}

func startFleet(plan *shard.Plan) (*fleet, error) {
	f := &fleet{metrics: shardrpc.NewMetrics(obs.NewRegistry())}
	spec := ""
	for i := 0; i < 2; i++ {
		blocks := fmt.Sprintf("%d%%2", i)
		owned, err := shardrpc.ParseBlocks(blocks, plan.NumBlocks())
		if err != nil {
			f.close()
			return nil, err
		}
		srv := shardrpc.NewServer(plan, shardrpc.ServerOptions{Blocks: owned, BlockSize: blockSize})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, addr.String())
		if i > 0 {
			spec += ";"
		}
		spec += addr.String() + "=" + blocks
	}
	peers, err := shardrpc.ParsePeers(spec)
	if err != nil {
		f.close()
		return nil, err
	}
	f.client = shardrpc.NewClient(shardrpc.ClientOptions{Peers: peers, BlockSize: blockSize, Metrics: f.metrics})
	return f, nil
}

func (f *fleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// wireBytes sums the bytes the client put on and took off the wire.
func (f *fleet) wireBytes() int64 {
	var n int64
	for _, a := range f.addrs {
		n += f.metrics.PeerBytes.With(a, "sent").Value() + f.metrics.PeerBytes.With(a, "recv").Value()
	}
	return n
}

// stack is the program under test, wired for one workload: the real
// server behind a real loopback listener, plus whatever the workload adds
// (shard fleet, mutator with a real WAL).
type stack struct {
	idx     *core.Index
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	fleet   *fleet
	log     *wal.Log
	walPath string
}

// newStack boots the stack. With a tracer, every algorithm in the mix is
// shadowed by a span-recording wrapper and the handler gets the
// benchmark's middleware; without one the program runs exactly as shipped.
func newStack(sp spec, idx *core.Index, dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{idx: idx, served: make(chan struct{})}
	opt := server.Options{
		DMax:      dmax,
		BlockSize: blockSize,
		Cache:     server.CacheOptions{Size: sp.CacheSize, TTL: -1},
	}
	data := idx.Data()
	if sp.Net {
		plan := shard.NewPlanner(shard.Options{BlockSize: blockSize}).PlanGraph(data)
		f, err := startFleet(plan)
		if err != nil {
			return nil, fmt.Errorf("starting shard fleet: %w", err)
		}
		st.fleet = f
		opt.Shards = 2
		opt.ShardClient = f.client
	}
	if tr != nil {
		opt.ExtraAlgorithms = make(map[string]search.Algorithm)
		for _, name := range sp.Algos {
			inner := newAlgo(name)
			if sp.Net {
				// Shadowing a name turns the server's own sharded path off,
				// so the benchmark builds the same sharded algorithm around
				// the same client, with a tap on the shard seam.
				so := shard.Options{Workers: min(2, runtime.GOMAXPROCS(0)), BlockSize: blockSize,
					Server: func(p *shard.Plan) shard.ShardServer {
						if p.Graph() == data {
							return &shardTap{inner: st.fleet.client.For(p), t: tr, layer: "shardrpc"}
						}
						return &shardTap{inner: shard.NewLocal(p), t: tr, layer: "shard"}
					}}
				if name == "bidir" {
					inner = bidir.NewSharded(dmax, so)
				} else {
					inner = bkws.NewSharded(dmax, so)
				}
			}
			opt.ExtraAlgorithms[name] = tracedAlgo{inner: inner, t: tr}
		}
	}
	st.srv = server.New(idx, idx.Ontology(), opt)

	st.walPath = filepath.Join(dir, "mutations.wal")
	log, _, err := wal.Open(st.walPath, wal.Options{BaseDigest: data.Digest()})
	if err != nil {
		st.close()
		return nil, err
	}
	st.log = log
	server.NewMutator(st.srv, 0, server.MutatorOptions{WAL: log})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	var h http.Handler = st.srv
	if tr != nil {
		h = tr.middleware(h)
	}
	st.hs = &http.Server{Handler: h}
	st.base = "http://" + ln.Addr().String()
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return st, nil
}

// close stops the listener, the fleet and the WAL and waits for the serve
// goroutine to end.
func (st *stack) close() {
	if st.hs != nil {
		_ = st.hs.Shutdown(context.Background())
		<-st.served
		st.hs = nil
	}
	if st.fleet != nil {
		st.fleet.close()
		st.fleet = nil
	}
	if st.log != nil {
		_ = st.log.Close()
		st.log = nil
	}
}
