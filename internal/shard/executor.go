package shard

import (
	"context"
	"sync"
	"sync/atomic"

	"bigindex/internal/graph"
	"bigindex/internal/search"
)

// Executor is the bounded worker pool. Workers are spawned per Map call
// and die with it: queries run for milliseconds while pools would need a
// lifecycle (nothing closes a search.Prepared), and a goroutine spawn is
// noise next to one expansion round. Worker 0 is the calling goroutine.
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

// Expand implements ShardServer: scan the frontier's block-local
// in-adjacency, reporting in-block neighbors (deduplicated within this
// response — the coordinator's mirror handles cross-round duplicates) and
// portal crossings. On cancellation the loop drains early: everything
// already scanned is still reported, the rest of the frontier is simply
// abandoned — sound, incomplete, like every degraded path.
func (l *Local) Expand(ctx context.Context, req *ExpandRequest) (*ExpandResponse, error) {
	bi := &l.plan.blocks[req.Block]
	resp := &ExpandResponse{Kw: req.Kw, Block: req.Block}

	cancel := search.NewCanceller(ctx)
	seen := make([]bool, len(bi.members))
	var remoteSeen map[graph.V]bool
	for _, v := range req.Frontier {
		if cancel.Cancelled() {
			break
		}
		resp.Expanded++
		p := l.plan.pos[v]
		for _, u := range bi.localAdj[bi.localOff[p]:bi.localOff[p+1]] {
			up := l.plan.pos[u]
			if !seen[up] {
				seen[up] = true
				resp.Local = append(resp.Local, u)
			}
		}
		remote := bi.remoteAdj[bi.remoteOff[p]:bi.remoteOff[p+1]]
		if len(remote) > 0 && remoteSeen == nil {
			remoteSeen = make(map[graph.V]bool, len(remote)*2)
		}
		for _, msg := range remote {
			if !remoteSeen[msg.V] {
				remoteSeen[msg.V] = true
				resp.Outbox = append(resp.Outbox, msg)
			}
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
