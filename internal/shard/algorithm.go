package shard

import (
	"context"
	"sync"

	"bigindex/internal/graph"
	"bigindex/internal/search"
)

// Mode selects which sequential semantics the sharded execution mirrors.
type Mode int

const (
	// ModeBKWS shards backward keyword search (bkws).
	ModeBKWS Mode = iota
	// ModeBidir shards bidirectional expansion (bidir).
	ModeBidir
)

func (m Mode) name() string {
	if m == ModeBidir {
		return "bidir"
	}
	return "bkws"
}

// Algorithm is the search.Algorithm adapter: it plugs sharded execution
// into the evaluator exactly where the sequential algorithm would sit, so
// hierarchical evaluation (summary layers, specialization, generation)
// works unchanged — only the per-layer Search runs scatter-gather.
type Algorithm struct {
	mode Mode
	dmax int
	opt  Options

	mu    sync.Mutex
	plans map[*graph.Graph]*Plan // fallback plan cache when opt.Cache is nil
}

// New returns a sharded algorithm for mode with distance bound dmax.
func New(mode Mode, dmax int, opt Options) *Algorithm {
	if dmax < 1 {
		dmax = 1
	}
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	return &Algorithm{mode: mode, dmax: dmax, opt: opt, plans: map[*graph.Graph]*Plan{}}
}

// Name implements search.Algorithm. The sharded variant keeps the
// sequential name: it implements the same semantics with byte-identical
// answers, so cache keys and per-algorithm metrics stay unified (a cached
// sequential result is a valid sharded result and vice versa).
func (a *Algorithm) Name() string { return a.mode.name() }

// Prepare implements search.Algorithm: resolve (or build) the graph's
// plan and wire a coordinator over a shard server — the Options.Server
// factory's choice (remote peers, in stage 2) or the in-process Local.
func (a *Algorithm) Prepare(g *graph.Graph) (search.Prepared, error) {
	plan := a.planFor(g)
	var srv ShardServer
	if a.opt.Server != nil {
		srv = a.opt.Server(plan)
	}
	if srv == nil {
		srv = NewLocal(plan)
	}
	return &prepared{
		algo: a,
		coor: NewCoordinator(plan, NewExecutor(a.opt.Workers), srv, a.opt.Metrics),
	}, nil
}

func (a *Algorithm) planFor(g *graph.Graph) *Plan {
	if a.opt.Cache != nil {
		return a.opt.Cache.For(g)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.plans[g]; ok {
		return p
	}
	p := NewPlanner(a.opt).PlanGraph(g)
	a.plans[g] = p
	return p
}

// NewGeneration implements search.Algorithm; sharded bkws/bidir share the
// rooted generation step with their sequential counterparts.
func (a *Algorithm) NewGeneration(data *graph.Graph, q []graph.Label, opt search.GenOptions) search.Generation {
	return search.NewRootedGeneration(data, q, a.dmax, nil, opt)
}

type prepared struct {
	algo *Algorithm
	coor *Coordinator
}

// Search implements search.Prepared.
func (p *prepared) Search(q []graph.Label, k int) ([]search.Match, error) {
	return p.SearchCtx(context.Background(), q, k)
}

// SearchCtx implements search.Prepared with the same degraded-partials
// contract as the sequential algorithms: on cancellation the matches
// found so far come back, sorted and truncated, with the context's cause.
func (p *prepared) SearchCtx(ctx context.Context, q []graph.Label, k int) ([]search.Match, error) {
	if p.algo.mode == ModeBidir {
		return p.coor.SearchBidir(ctx, q, k, p.algo.dmax)
	}
	return p.coor.SearchBKWS(ctx, q, k, p.algo.dmax)
}
