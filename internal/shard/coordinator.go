package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
)

// Coordinator drives the level-synchronous scatter-gather over one plan.
// It owns the global view the shards deliberately lack: which (keyword,
// block) slots still have work, the portal messages routed between
// blocks, the per-root Σdist bookkeeping, and the top-k early-stop bound.
// Everything it learns arrives through ExpandResponse/VerifyResponse —
// never by reading shard memory — so swapping Local for a network
// ShardServer changes no coordinator logic. Since the protocol is
// stateless, the coordinator is also the sole owner of settlement: shard
// responses are candidate reports, and the mirror decides what is new.
type Coordinator struct {
	plan *Plan
	exec *Executor
	srv  ShardServer
	met  *Metrics
}

// NewCoordinator wires a coordinator over plan, dispatching through exec
// to srv. met may be nil.
func NewCoordinator(plan *Plan, exec *Executor, srv ShardServer, met *Metrics) *Coordinator {
	return &Coordinator{plan: plan, exec: exec, srv: srv, met: met}
}

// arrival is one settlement candidate for the next level: vertex v of
// block, reached by expansion keyword kw.
type arrival struct {
	kw, block int32
	v         graph.V
}

// roundBufs are the coordinator's per-round buffers, pooled across
// queries. They only grow, and nothing in them is sized by the plan's
// block count: a round touches only the slots its candidates name.
type roundBufs struct {
	arrive []arrival     // pending candidates, in arrival order until settled
	front  []graph.V     // this round's frontiers, concatenated in slot order
	slots  []ExpandSlot  // this round's slots; Frontier views into front
	req    ExpandRequest // the round's one request
}

var roundPool = sync.Pool{New: func() any { return new(roundBufs) }}

// fleet is the coordinator-side state of one query's expansion rounds,
// shared by the bkws and bidir drivers.
type fleet struct {
	c  *Coordinator
	nk int // expansion keywords (1 for bidir)
	// s is the mirror: keyword kw's settled distance at v is s.Dist(kw, v),
	// the only copy anywhere. Shards are stateless, so the mirror is the
	// authority that makes duplicated or retried responses harmless
	// (re-reported vertices are already settled and ignored). bkws counts
	// roots on the same scratch.
	s *search.Scratch
	b *roundBufs

	// kwPos maps an expansion-keyword index to its query position (bkws:
	// identity; bidir: the selective keyword), for coverage attribution.
	kwPos []int
	nkQ   int // query keyword count (coverage PerKeyword length)

	// lost flips on the first terminal shard failure: the query finishes
	// settling what the current round already produced (still exact — see
	// the soundness note on runRound) and stops expanding.
	lost       bool
	lostByKw   []map[int]bool // allocated on the first loss
	unverified int
	// failedPeers unions the peer addresses the transport blamed for the
	// losses above (see losePeers).
	failedPeers map[string]bool

	workerWork   []int64
	expanded     int
	portal       int
	tasks        int
	rounds       int
	frontierPeak int
}

func (c *Coordinator) newFleet(nk int, kwPos []int, nkQ int) *fleet {
	return &fleet{
		c: c, nk: nk,
		s:          search.GetScratch(c.plan.g.NumVertices(), nk),
		b:          roundPool.Get().(*roundBufs),
		kwPos:      kwPos,
		nkQ:        nkQ,
		workerWork: make([]int64, c.exec.Workers()),
	}
}

// release returns the fleet's scratch and buffers to their pools. A
// query that stopped early leaves candidates pending; the rest of the
// buffers are reset by the next settleArrivals.
func (f *fleet) release() {
	search.PutScratch(f.s)
	f.b.arrive = f.b.arrive[:0]
	roundPool.Put(f.b)
	f.s, f.b = nil, nil
}

// seed queues every vertex labelled l as a level-0 candidate of keyword
// kw. Posting lists are ascending, so each slot's seeds are too.
func (f *fleet) seed(kw int, l graph.Label) {
	blockOf := f.c.plan.part.BlockOf
	for _, v := range f.c.plan.g.VerticesWithLabel(l) {
		f.b.arrive = append(f.b.arrive, arrival{kw: int32(kw), block: int32(blockOf[v]), v: v})
	}
}

// settleArrivals consumes the pending candidates, settles the not-yet-seen
// ones at lvl in the mirror (calling settle, when non-nil, for each), and
// lays the newly settled out as this round's slots. It returns how many
// settled. The stable sort groups candidates by (keyword, block) slot and
// keeps arrival order within a slot, so settlement order is deterministic
// (the final (score, Key) sort makes output order independent of it
// anyway).
func (f *fleet) settleArrivals(lvl int32, settle func(v graph.V)) int {
	b := f.b
	slices.SortStableFunc(b.arrive, func(x, y arrival) int {
		if x.kw != y.kw {
			return cmp.Compare(x.kw, y.kw)
		}
		return cmp.Compare(x.block, y.block)
	})
	b.front, b.slots = b.front[:0], b.slots[:0]
	for i := 0; i < len(b.arrive); {
		kw, block := b.arrive[i].kw, b.arrive[i].block
		start := len(b.front)
		for ; i < len(b.arrive) && b.arrive[i].kw == kw && b.arrive[i].block == block; i++ {
			v := b.arrive[i].v
			if !f.s.Reach(int(kw), v, int(lvl)) {
				continue
			}
			if settle != nil {
				settle(v)
			}
			b.front = append(b.front, v)
		}
		if end := len(b.front); end > start {
			// A later append may move front; this view keeps the values
			// already written, which never change.
			b.slots = append(b.slots, ExpandSlot{Kw: int(kw), Block: int(block), Frontier: b.front[start:end:end]})
		}
	}
	b.arrive = b.arrive[:0]
	return len(b.front)
}

// runRound sends the round's slots as one Expand call and absorbs the
// answers, returning the vertices expanded. The transport may split the
// call across peers; either way a slot comes back answered or lost.
//
// A lost slot while the query's own context is still live is a terminal
// shard failure (the client has already exhausted retries, failover, and
// budget): the (keyword, block) slot is recorded as lost and the fleet
// stops expanding after this round. Soundness of what remains: every
// round before this one succeeded for every block, so all distances
// settled through this round's products (level Level+1) are exact — a
// shorter path through the failed block would have had to surface in an
// earlier, successful round. Settling this round's survivors is
// therefore safe; expanding past them is not, because a level+2
// settlement could silently inflate a distance whose true shortest path
// crossed the lost block. Stop, do not guess.
func (f *fleet) runRound(ctx context.Context, lvl int32) (expanded int) {
	b := f.b
	f.rounds++
	f.tasks += len(b.slots)
	// The round span groups this round's RPC spans in the stitched trace
	// and — because it rides the dispatch context — puts the round index
	// into /debug/active's current path while the query is blocked here.
	roundSpan := obs.SpanFromContext(ctx).StartChild("shard-round-" + strconv.Itoa(f.rounds-1))
	rctx := ctx
	if roundSpan != nil {
		roundSpan.SetAttr("round", f.rounds-1).SetAttr("tasks", len(b.slots))
		rctx = obs.ContextWithSpan(ctx, roundSpan)
	}
	b.req = ExpandRequest{Level: lvl, Slots: b.slots}
	resp, err := f.c.srv.Expand(rctx, &b.req)
	roundSpan.End()
	if err == nil && len(resp.Slots) != len(b.slots) {
		err = fmt.Errorf("shard: round answered %d of %d slots", len(resp.Slots), len(b.slots))
	}
	for i, sl := range b.slots {
		slotErr := err
		if err == nil {
			slotErr = resp.Slots[i].Err
		}
		if slotErr != nil {
			// A failure the query's own deadline/cancel caused degrades at
			// the loop head with the context cause, not as coverage loss.
			if ctx.Err() == nil {
				f.lose(sl.Kw, sl.Block, slotErr)
			}
			continue
		}
		r := &resp.Slots[i]
		expanded += r.Expanded
		f.absorb(sl.Kw, sl.Block, r)
	}
	f.workerWork[0] += int64(expanded)
	return expanded
}

// lose marks a (keyword, block) slot terminally failed, attributing the
// loss to the peers the transport blamed.
func (f *fleet) lose(kw, block int, err error) {
	f.lost = true
	if f.lostByKw == nil {
		f.lostByKw = make([]map[int]bool, f.nk)
	}
	if f.lostByKw[kw] == nil {
		f.lostByKw[kw] = map[int]bool{}
	}
	f.lostByKw[kw][block] = true
	f.losePeers(err)
}

// losePeers unions the failed-peer addresses out of a transport error.
// The shard package cannot name shardrpc types (shardrpc imports shard),
// so attribution goes through the FailedPeers interface the transport's
// typed error implements; errors from other ShardServer implementations
// simply carry no attribution.
func (f *fleet) losePeers(err error) {
	var pf interface{ FailedPeers() []string }
	if !errors.As(err, &pf) {
		return
	}
	if f.failedPeers == nil {
		f.failedPeers = map[string]bool{}
	}
	for _, p := range pf.FailedPeers() {
		f.failedPeers[p] = true
	}
}

// absorb queues a slot's settlement candidates: in-block neighbors for
// the same slot, portal crossings for the owning blocks. Candidates the
// mirror already holds are dropped here (an optimization —
// settleArrivals re-checks the mirror, which is what makes duplicate
// responses harmless).
func (f *fleet) absorb(kw, block int, r *SlotResult) {
	for _, v := range r.Local {
		if _, ok := f.s.Dist(kw, v); ok {
			continue
		}
		f.b.arrive = append(f.b.arrive, arrival{kw: int32(kw), block: int32(block), v: v})
	}
	for _, msg := range r.Outbox {
		if _, ok := f.s.Dist(kw, msg.V); ok {
			continue
		}
		f.b.arrive = append(f.b.arrive, arrival{kw: int32(kw), block: msg.Block, v: msg.V})
		f.portal++
	}
}

// finish flushes the fleet's counters to the ambient ledger/span/metrics
// and its losses to the request's coverage collector.
func (f *fleet) finish(ctx context.Context, algo string, roots int, earlyStop bool) {
	led := obs.LedgerFromContext(ctx)
	led.AddExpanded(int64(f.expanded))
	led.NoteFrontier(int64(f.frontierPeak))
	for worker, n := range f.workerWork {
		led.AddShardWork(worker, n)
	}
	lostBlocks := map[int]bool{}
	if f.lost || f.unverified > 0 {
		cov := CoverageFromContext(ctx)
		for kw, lost := range f.lostByKw {
			for b := range lost {
				lostBlocks[b] = true
				cov.lose(f.kwPos[kw], b, f.nkQ, f.c.plan.NumBlocks())
			}
		}
		cov.loseRoots(f.unverified)
		cov.losePeers(f.failedPeerList())
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.SetAttr("shard_workers", f.c.exec.Workers()).
			SetAttr("shard_blocks", f.c.plan.NumBlocks()).
			SetAttr("shard_rounds", f.rounds).
			SetAttr("shard_tasks", f.tasks).
			SetAttr("shard_portal_msgs", f.portal).
			SetAttr("roots", roots).
			SetAttr("early_topk", earlyStop)
		if f.lost || f.unverified > 0 {
			sp.SetAttr("shard_blocks_lost", len(lostBlocks)).
				SetAttr("shard_roots_unverified", f.unverified)
			if peers := f.failedPeerList(); len(peers) > 0 {
				sp.SetAttr("shard_failed_peers", peers)
			}
		}
	}
	if m := f.c.met; m != nil {
		m.Queries.With(algo).Inc()
		m.Tasks.Add(int64(f.tasks))
		m.Portal.Add(int64(f.portal))
		m.Rounds.Observe(float64(f.rounds))
		m.Lost.Add(int64(len(lostBlocks)))
	}
}

// SearchBKWS is the sharded backward keyword search: every keyword's
// multi-source backward BFS decomposed per (keyword × block), stitched at
// portals, with the coordinator completing roots (vertices settled by all
// keywords) from its Σdist bookkeeping. Byte-identical to the sequential
// search.Rooted under the BANKS schedule (bkws.New): the rounds compute
// the same exact distances, and the strict stop bound admits exactly the
// exhaustive top-k prefix.
func (c *Coordinator) SearchBKWS(ctx context.Context, q []graph.Label, k, dmax int) ([]search.Match, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("bkws: empty query")
	}
	for _, l := range q {
		if c.plan.g.LabelCount(l) == 0 {
			return nil, nil // a keyword with no occurrences has no answers
		}
	}
	nk := len(q)
	kwPos := make([]int, nk)
	for i := range kwPos {
		kwPos[i] = i
	}
	f := c.newFleet(nk, kwPos, nk)
	defer f.release()
	for i, l := range q {
		f.seed(i, l)
	}

	var matches []search.Match
	// settle completes the root once every keyword has settled it (the
	// mirror write happened in settleArrivals).
	settle := func(v graph.V) {
		if f.s.CountRoot(v) != nk {
			return
		}
		dists := f.s.Dists(v, nk)
		matches = append(matches, search.Match{Root: v, Dists: dists, Score: search.SumDistances(dists)})
	}

	var err error
	earlyStop := false
	for lvl := int32(0); int(lvl) <= dmax; lvl++ {
		if ctx.Err() != nil {
			err = context.Cause(ctx)
			break
		}
		total := f.settleArrivals(lvl, settle)
		if total == 0 {
			break
		}
		if total > f.frontierPeak {
			f.frontierPeak = total
		}
		// Every settlement still pending has level >= lvl+1, so an
		// undiscovered root completes with score >= lvl+1: once the k-th
		// answer is strictly better, nothing out there can displace the
		// prefix — and the next round need not even be dispatched.
		if k > 0 && len(matches) >= k {
			search.SortMatches(matches)
			if matches[k-1].Score < float64(lvl+1) {
				earlyStop = true
				break
			}
		}
		// Vertices at the distance bound are settled — valid witnesses —
		// but not expanded; and after a terminal shard failure the fleet
		// settles this round's products, then stops (see runRound).
		if int(lvl) == dmax || f.lost {
			break
		}
		f.expanded += f.runRound(ctx, lvl)
	}

	search.SortMatches(matches)
	matches = search.Truncate(matches, k)
	// Witness nodes are presentational (Match.Key ignores them); assemble
	// them only for the returned matches, in parallel — same deterministic
	// smallest-ID BFS as the sequential path, just not wasted on answers
	// that truncation drops. Each worker probes on its own Scratch: the
	// round state's f.s belongs to this goroutine.
	probes := make([]*search.Scratch, c.exec.Workers())
	c.exec.Map(len(matches), func(i, worker int) {
		if probes[worker] == nil {
			probes[worker] = search.GetScratch(c.plan.g.NumVertices(), 0)
		}
		m := &matches[i]
		m.Nodes = probes[worker].WitnessNodes(c.plan.g, m.Root, q, m.Dists)
	})
	for _, s := range probes {
		if s != nil {
			search.PutScratch(s)
		}
	}
	f.finish(ctx, "bkws", len(matches), earlyStop)
	return matches, err
}

// SearchBidir is the sharded bidirectional expansion: the backward
// activation from the most selective keyword runs block-sharded like one
// bkws keyword, and each level's newly activated candidates are verified
// forward in parallel chunks. Byte-identical to search.Rooted under the
// Bidirectional schedule (bidir.New).
func (c *Coordinator) SearchBidir(ctx context.Context, q []graph.Label, k, dmax int) ([]search.Match, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("bidir: empty query")
	}
	sel := 0
	for i, l := range q {
		if c.plan.g.LabelCount(l) == 0 {
			return nil, nil
		}
		if c.plan.g.LabelCount(l) < c.plan.g.LabelCount(q[sel]) {
			sel = i
		}
	}
	f := c.newFleet(1, []int{sel}, len(q))
	defer f.release()
	f.seed(0, q[sel])

	var matches []search.Match
	verified := 0
	var err error
	earlyStop := false
	for lvl := int32(0); int(lvl) <= dmax; lvl++ {
		if ctx.Err() != nil {
			err = context.Cause(ctx)
			break
		}
		total := f.settleArrivals(lvl, nil)
		if total == 0 {
			break
		}
		if total > f.frontierPeak {
			f.frontierPeak = total
		}
		// Forward verification dominates bidir's cost and is independent
		// per candidate: chunk this level's activations (the round's
		// frontier) across the pool.
		for _, resp := range f.verifyChunks(ctx, q, dmax, f.b.front) {
			if resp == nil {
				continue
			}
			matches = append(matches, resp.Matches...)
			verified += resp.Verified
		}
		// Any future candidate has backward distance >= lvl+1 to the
		// selective keyword, hence score >= lvl+1 (strict bound: an equal
		// score could still win on Key order, so only a strictly better
		// k-th answer closes the search).
		if k > 0 && len(matches) >= k {
			search.SortMatches(matches)
			if matches[k-1].Score < float64(lvl+1) {
				earlyStop = true
				break
			}
		}
		if int(lvl) == dmax || f.lost {
			break
		}
		f.runRound(ctx, lvl)
	}

	f.expanded += verified // bidir's ledger unit is verification attempts
	search.SortMatches(matches)
	matches = search.Truncate(matches, k)
	f.finish(ctx, "bidir", len(matches), earlyStop)
	return matches, err
}

// verifyChunks splits a level's candidates into one VerifyRequest per
// executor slot (at least verifyChunkMin roots each, so tiny levels do
// not shatter into per-root calls) and runs them concurrently. A chunk
// that terminally fails drops only its own roots — verification is exact
// and independent per root, so the rest of the level stays sound; the
// dropped count lands in the coverage report.
const verifyChunkMin = 8

func (f *fleet) verifyChunks(ctx context.Context, q []graph.Label, dmax int, roots []graph.V) []*VerifyResponse {
	if len(roots) == 0 {
		return nil
	}
	chunk := (len(roots) + f.c.exec.Workers() - 1) / f.c.exec.Workers()
	if chunk < verifyChunkMin {
		chunk = verifyChunkMin
	}
	var reqs []*VerifyRequest
	for off := 0; off < len(roots); off += chunk {
		end := off + chunk
		if end > len(roots) {
			end = len(roots)
		}
		reqs = append(reqs, &VerifyRequest{Labels: q, DMax: dmax, Roots: roots[off:end]})
	}
	f.tasks += len(reqs)
	resps := make([]*VerifyResponse, len(reqs))
	errs := make([]error, len(reqs))
	f.c.exec.Map(len(reqs), func(i, worker int) {
		resp, err := f.c.srv.Verify(ctx, reqs[i])
		if err != nil {
			errs[i] = err
			return
		}
		resps[i] = resp
		f.workerWork[worker] += int64(resp.Verified)
	})
	for i, err := range errs {
		if err == nil || ctx.Err() != nil {
			continue
		}
		f.unverified += len(reqs[i].Roots)
		f.losePeers(err)
	}
	return resps
}

// failedPeerList returns the sorted failed-peer union (nil when empty).
func (f *fleet) failedPeerList() []string {
	if len(f.failedPeers) == 0 {
		return nil
	}
	out := make([]string, 0, len(f.failedPeers))
	for p := range f.failedPeers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
