package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"

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

// fleet is the coordinator-side state of one query's expansion rounds,
// shared by the bkws and bidir drivers.
type fleet struct {
	c  *Coordinator
	nk int // expansion keywords (1 for bidir)
	nb int
	// mirror holds the settled-distance rows — the only copy anywhere:
	// shards are stateless, so the mirror is the authority that makes
	// duplicated or retried responses harmless (re-reported vertices are
	// already settled and ignored).
	mirror [][]int32
	counts [][]uint8   // per-block per-member settled-keyword counts (bkws)
	arrive [][]graph.V // settlement candidates for the next level, per (kw, block) slot

	// kwPos maps an expansion-keyword index to its query position (bkws:
	// identity; bidir: the selective keyword), for coverage attribution.
	kwPos []int
	nkQ   int // query keyword count (coverage PerKeyword length)

	// lost flips on the first terminal shard failure: the query finishes
	// settling what the current round already produced (still exact — see
	// the soundness note on runRound) and stops expanding.
	lost       bool
	lostByKw   []map[int]bool
	unverified int
	// failedPeers unions the peer addresses the transport blamed for the
	// losses above (see peersOf).
	failedPeers map[string]bool

	workerWork   []int64
	expanded     int
	portal       int
	tasks        int
	rounds       int
	frontierPeak int
}

func (c *Coordinator) newFleet(nk int, kwPos []int, nkQ int) *fleet {
	nb := c.plan.NumBlocks()
	return &fleet{
		c: c, nk: nk, nb: nb,
		mirror:     make([][]int32, nk*nb),
		arrive:     make([][]graph.V, nk*nb),
		kwPos:      kwPos,
		nkQ:        nkQ,
		lostByKw:   make([]map[int]bool, nk),
		workerWork: make([]int64, c.exec.Workers()),
	}
}

func (f *fleet) mirrorRow(kw, block int) []int32 {
	slot := kw*f.nb + block
	if f.mirror[slot] == nil {
		row := make([]int32, len(f.c.plan.blocks[block].members))
		for i := range row {
			row[i] = -1
		}
		f.mirror[slot] = row
	}
	return f.mirror[slot]
}

func (f *fleet) seed(kw int, byBlock map[int][]graph.V) {
	for b, seeds := range byBlock {
		f.arrive[kw*f.nb+b] = seeds
	}
}

// settleArrivals consumes every slot's pending candidates, settles the
// not-yet-seen ones at lvl in the mirror (calling settle for each), and
// returns the per-slot frontiers plus the total newly settled. Slots are
// visited in order and candidates in arrival order, so settlement order
// is deterministic (the final (score, Key) sort makes output order
// independent of it anyway).
func (f *fleet) settleArrivals(lvl int32, settle func(kw, block int, v graph.V)) (frontiers [][]graph.V, total int) {
	frontiers = make([][]graph.V, f.nk*f.nb)
	for slot := range f.arrive {
		cand := f.arrive[slot]
		if len(cand) == 0 {
			continue
		}
		f.arrive[slot] = nil
		kw, block := slot/f.nb, slot%f.nb
		row := f.mirrorRow(kw, block)
		var fr []graph.V
		for _, v := range cand {
			p := f.c.plan.pos[v]
			if row[p] != -1 {
				continue
			}
			row[p] = lvl
			settle(kw, block, v)
			fr = append(fr, v)
		}
		if len(fr) > 0 {
			frontiers[slot] = fr
			total += len(fr)
		}
	}
	return frontiers, total
}

// buildRequests turns the non-empty frontiers into one round's requests,
// in slot order (determinism of dispatch order is not needed for
// correctness — responses are merged set-wise — but it keeps traces
// readable).
func (f *fleet) buildRequests(lvl int32, frontiers [][]graph.V) []*ExpandRequest {
	var reqs []*ExpandRequest
	for slot, fr := range frontiers {
		if len(fr) == 0 {
			continue
		}
		reqs = append(reqs, &ExpandRequest{
			Kw:       slot / f.nb,
			Block:    slot % f.nb,
			Level:    lvl,
			Frontier: fr,
		})
	}
	return reqs
}

// runRound dispatches one round across the executor and returns the
// responses (nil entries mark failed slots). Per-worker expansion tallies
// land in workerWork[worker] — each worker writes only its own slot, so
// no lock.
//
// A slot error while the query's own context is still live is a terminal
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
func (f *fleet) runRound(ctx context.Context, reqs []*ExpandRequest) []*ExpandResponse {
	f.rounds++
	f.tasks += len(reqs)
	// The round span groups this round's RPC spans in the stitched trace
	// and — because it rides the dispatch context — puts the round index
	// into /debug/active's current path while the query is blocked here.
	roundSpan := obs.SpanFromContext(ctx).StartChild("shard-round-" + strconv.Itoa(f.rounds-1))
	rctx := ctx
	if roundSpan != nil {
		roundSpan.SetAttr("round", f.rounds-1).SetAttr("tasks", len(reqs))
		rctx = obs.ContextWithSpan(ctx, roundSpan)
	}
	resps := make([]*ExpandResponse, len(reqs))
	errs := make([]error, len(reqs))
	f.c.exec.Map(len(reqs), func(i, worker int) {
		resp, err := f.c.srv.Expand(rctx, reqs[i])
		if err != nil {
			errs[i] = err
			return
		}
		resps[i] = resp
		f.workerWork[worker] += int64(resp.Expanded)
	})
	roundSpan.End()
	for i, err := range errs {
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			// The query's own deadline/cancel caused this; the loop head
			// degrades with the context cause, not with coverage loss.
			continue
		}
		f.lose(reqs[i].Kw, reqs[i].Block, err)
	}
	return resps
}

// lose marks a (keyword, block) slot terminally failed, attributing the
// loss to the peers the transport blamed.
func (f *fleet) lose(kw, block int, err error) {
	f.lost = true
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

// absorb queues a response's settlement candidates: in-block neighbors
// for the same slot, portal crossings for the owning blocks. Candidates
// the coordinator already saw settle are dropped here (an optimization —
// settleArrivals re-checks the mirror, which is what makes duplicate
// responses harmless).
func (f *fleet) absorb(resp *ExpandResponse) {
	slot := resp.Kw*f.nb + resp.Block
	if row := f.mirror[slot]; row != nil {
		for _, v := range resp.Local {
			if row[f.c.plan.pos[v]] != -1 {
				continue
			}
			f.arrive[slot] = append(f.arrive[slot], v)
		}
	} else {
		f.arrive[slot] = append(f.arrive[slot], resp.Local...)
	}
	for _, msg := range resp.Outbox {
		tslot := resp.Kw*f.nb + int(msg.Block)
		if row := f.mirror[tslot]; row != nil && row[f.c.plan.pos[msg.V]] != -1 {
			continue
		}
		f.arrive[tslot] = append(f.arrive[tslot], msg.V)
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
				cov.lose(f.kwPos[kw], b, f.nkQ, f.nb)
			}
		}
		cov.loseRoots(f.unverified)
		cov.losePeers(f.failedPeerList())
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.SetAttr("shard_workers", f.c.exec.Workers()).
			SetAttr("shard_blocks", f.nb).
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
// keywords) from its Σdist bookkeeping. Byte-identical to bkws.SearchCtx:
// the rounds compute the same exact distances, and the strict stop bound
// admits exactly the exhaustive top-k prefix.
func (c *Coordinator) SearchBKWS(ctx context.Context, q []graph.Label, k, dmax int) ([]search.Match, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("bkws: empty query")
	}
	seeds := make([]map[int][]graph.V, len(q))
	for i, l := range q {
		seeds[i] = c.plan.seedsByBlock(l)
		if seeds[i] == nil {
			return nil, nil // a keyword with no occurrences has no answers
		}
	}
	nk := len(q)
	kwPos := make([]int, nk)
	for i := range kwPos {
		kwPos[i] = i
	}
	f := c.newFleet(nk, kwPos, nk)
	for i := range q {
		f.seed(i, seeds[i])
	}

	var matches []search.Match
	// settle completes the root once every keyword has settled it (the
	// mirror write happened in settleArrivals). counts is bounded by
	// len(q) per member, so uint8 is ample (queries are a handful of
	// keywords).
	f.counts = make([][]uint8, f.nb)
	settle := func(kw, block int, v graph.V) {
		p := c.plan.pos[v]
		if f.counts[block] == nil {
			f.counts[block] = make([]uint8, len(c.plan.blocks[block].members))
		}
		f.counts[block][p]++
		if int(f.counts[block][p]) != nk {
			return
		}
		dists := make([]int, nk)
		sum := 0
		for kw2 := 0; kw2 < nk; kw2++ {
			d := int(f.mirror[kw2*f.nb+block][p])
			dists[kw2] = d
			sum += d
		}
		matches = append(matches, search.Match{Root: v, Dists: dists, Score: float64(sum)})
	}

	var err error
	earlyStop := false
	for lvl := int32(0); int(lvl) <= dmax; lvl++ {
		if ctx.Err() != nil {
			err = context.Cause(ctx)
			break
		}
		frontiers, total := f.settleArrivals(lvl, settle)
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
		for _, resp := range f.runRound(ctx, f.buildRequests(lvl, frontiers)) {
			if resp == nil {
				continue
			}
			f.expanded += resp.Expanded
			f.absorb(resp)
		}
	}

	search.SortMatches(matches)
	matches = search.Truncate(matches, k)
	// Witness nodes are presentational (Match.Key ignores them); assemble
	// them only for the returned matches, in parallel — same deterministic
	// smallest-ID BFS as the sequential path, just not wasted on answers
	// that truncation drops.
	c.exec.Map(len(matches), func(i, _ int) {
		m := &matches[i]
		m.Nodes = search.WitnessNodes(c.plan.g, m.Root, q, m.Dists)
	})
	f.finish(ctx, "bkws", len(matches), earlyStop)
	return matches, err
}

// SearchBidir is the sharded bidirectional expansion: the backward
// activation from the most selective keyword runs block-sharded like one
// bkws keyword, and each level's newly activated candidates are verified
// forward in parallel chunks. Byte-identical to bidir.SearchCtx.
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
	f.seed(0, c.plan.seedsByBlock(q[sel]))

	var matches []search.Match
	verified := 0
	var err error
	earlyStop := false
	for lvl := int32(0); int(lvl) <= dmax; lvl++ {
		if ctx.Err() != nil {
			err = context.Cause(ctx)
			break
		}
		var cands []graph.V
		frontiers, total := f.settleArrivals(lvl, func(_, _ int, v graph.V) {
			cands = append(cands, v)
		})
		if total == 0 {
			break
		}
		if total > f.frontierPeak {
			f.frontierPeak = total
		}
		// Forward verification dominates bidir's cost and is independent
		// per candidate: chunk this level's activations across the pool.
		for _, resp := range f.verifyChunks(ctx, q, dmax, cands) {
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
		for _, resp := range f.runRound(ctx, f.buildRequests(lvl, frontiers)) {
			if resp == nil {
				continue
			}
			f.absorb(resp)
		}
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
