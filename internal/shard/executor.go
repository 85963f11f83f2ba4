package shard

import (
	"context"
	"sync"
	"sync/atomic"

	"bigindex/internal/graph"
	"bigindex/internal/search"
)

// Executor is the bounded worker pool for verification chunks and witness
// assembly. Workers are spawned per Map call and die with it: queries run
// for milliseconds while pools would need a lifecycle (nothing closes a
// search.Prepared), and a goroutine spawn is noise next to one chunk.
// Worker 0 is the calling goroutine.
type Executor struct {
	workers int
}

// NewExecutor returns an executor running at most workers tasks at once
// (minimum 1).
func NewExecutor(workers int) *Executor {
	if workers < 1 {
		workers = 1
	}
	return &Executor{workers: workers}
}

// Workers returns the configured pool size.
func (e *Executor) Workers() int { return e.workers }

// Map runs fn(i, worker) for every i in [0, n) across the pool and waits
// for all of them. Tasks are claimed from a shared counter (work
// stealing), so a straggler block does not idle the other workers; worker
// ids are dense in [0, Workers), letting callers keep per-worker tallies
// without locks.
func (e *Executor) Map(n int, fn func(i, worker int)) {
	if n <= 0 {
		return
	}
	w := e.workers
	if n < w {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	run := func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i, worker)
		}
	}
	wg.Add(w - 1)
	for worker := 1; worker < w; worker++ {
		go func(worker int) {
			defer wg.Done()
			run(worker)
		}(worker)
	}
	run(0)
	wg.Wait()
}

// Local is the in-process ShardServer: all blocks of one plan served from
// shared memory. It is stateless — every request carries its whole input
// and the plan is immutable — so one Local value serves any number of
// concurrent queries, rounds, and retries with no locking at all.
type Local struct {
	plan *Plan
}

// NewLocal serves every block of plan in-process.
func NewLocal(plan *Plan) *Local {
	return &Local{plan: plan}
}

// Expand implements ShardServer: serve every slot of the round in turn,
// scanning its frontier's block-local in-adjacency and reporting in-block
// neighbors and portal crossings, each deduplicated within the slot (the
// coordinator's mirror handles cross-round duplicates). All slots' results
// share two backing arrays sized up front from the CSR offsets, so a round
// costs the same few allocations however many slots it carries. On
// cancellation the loop drains early: everything already scanned is still
// reported, the rest of the round is simply abandoned — sound,
// incomplete, like every degraded path.
func (l *Local) Expand(ctx context.Context, req *ExpandRequest) (*ExpandResponse, error) {
	p := l.plan
	nLocal, nOut := 0, 0
	for _, sl := range req.Slots {
		bi := &p.blocks[sl.Block]
		for _, v := range sl.Frontier {
			i := p.pos[v]
			nLocal += int(bi.localOff[i+1] - bi.localOff[i])
			nOut += int(bi.remoteOff[i+1] - bi.remoteOff[i])
		}
	}
	resp := &ExpandResponse{Slots: make([]SlotResult, len(req.Slots))}
	locals := make([]graph.V, 0, nLocal)
	outs := make([]PortalMsg, 0, nOut)

	cancel := search.NewCanceller(ctx)
	s := search.GetScratch(p.g.NumVertices(), 0)
	defer search.PutScratch(s)
	for k, sl := range req.Slots {
		bi := &p.blocks[sl.Block]
		r := &resp.Slots[k]
		l0, o0 := len(locals), len(outs)
		s.NewVisit()
		for _, v := range sl.Frontier {
			if cancel.Cancelled() {
				break
			}
			r.Expanded++
			i := p.pos[v]
			for _, u := range bi.localAdj[bi.localOff[i]:bi.localOff[i+1]] {
				if s.Visit(u) {
					locals = append(locals, u)
				}
			}
			for _, msg := range bi.remoteAdj[bi.remoteOff[i]:bi.remoteOff[i+1]] {
				if s.Visit(msg.V) {
					outs = append(outs, msg)
				}
			}
		}
		if len(locals) > l0 {
			r.Local = locals[l0:len(locals):len(locals)]
		}
		if len(outs) > o0 {
			r.Outbox = outs[o0:len(outs):len(outs)]
		}
	}
	return resp, nil
}

// Verify implements ShardServer: bidir's forward verification for a chunk
// of candidate roots, each an independent bounded BFS over the immutable
// graph. Matches keep MinDistToLabels' deterministic smallest-ID witness
// tie-break, so they are byte-identical to the sequential path's.
func (l *Local) Verify(ctx context.Context, req *VerifyRequest) (*VerifyResponse, error) {
	resp := &VerifyResponse{}
	cancel := search.NewCanceller(ctx)
	s := search.GetScratch(l.plan.g.NumVertices(), 0)
	defer search.PutScratch(s)
	for _, r := range req.Roots {
		if cancel.Cancelled() {
			break
		}
		resp.Verified++
		if m, ok := s.RootMatch(l.plan.g, r, req.Labels, req.DMax); ok {
			resp.Matches = append(resp.Matches, m)
		}
	}
	return resp, nil
}
