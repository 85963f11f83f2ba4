package obs

import (
	"context"
	"sync"
	"sync/atomic"
)

// MaxLedgerLayers bounds the per-layer work-unit array. BiG-index
// hierarchies top out at h ≈ 7 layers (the paper's ontologies); work on a
// deeper layer is clamped into the last slot rather than dropped.
const MaxLedgerLayers = 16

// MaxLedgerShards bounds the per-shard-worker work array. The shard
// coordinator's worker pool is its fan-out (the server's Options.Shards);
// work from a worker id beyond the bound is clamped into the last slot
// rather than dropped.
const MaxLedgerShards = 32

// Ledger is the per-query resource ledger: deterministic work counters
// (vertices expanded, frontier peak, per-layer and per-shard-worker work
// units). It is carried through evaluation in the context
// (ContextWithLedger), next to the trace span, and every method is
// nil-safe so instrumented code records unconditionally — without a
// ledger in the context the whole feature costs one nil check.
//
// The counters are exact and per-query: the evaluator and the search
// algorithms accumulate locally and flush once, so concurrent queries
// never share a counter.
type Ledger struct {
	expanded     atomic.Int64
	frontierPeak atomic.Int64
	layerWork    [MaxLedgerLayers]atomic.Int64
	shardWork    [MaxLedgerShards]atomic.Int64

	// Remote accounting: work measured *on shard peers* and merged back
	// via MergeRemote. Kept separate from the local counters because the
	// coordinator already counts remote expansions in its own ledger (it
	// sees every ExpandResponse.Expanded); merging peer ledgers into the
	// local counters would double-count. These fields answer the
	// complementary question: what did the fleet itself spend.
	remoteCalls atomic.Int64
	remoteUnits atomic.Int64

	mu   sync.Mutex
	snap *LedgerSnapshot // set once by Snapshot; later calls reuse it
}

// LedgerSnapshot is the finalized ledger, attached to trace records.
// LayerWork is indexed by layer (0 = data graph) and trimmed to the
// highest layer that saw work.
type LedgerSnapshot struct {
	Expanded     int64   `json:"vertices_expanded"`
	FrontierPeak int64   `json:"frontier_peak"`
	LayerWork    []int64 `json:"layer_work,omitempty"`
	// ShardWork is indexed by shard worker id and trimmed to the highest
	// worker that saw work; present only for sharded executions. The
	// spread across slots is the query's load balance.
	ShardWork []int64 `json:"shard_work,omitempty"`
	WorkUnits int64   `json:"work_units"`
	// Remote* are sums over the per-call ledgers shard peers shipped back
	// for this query (telemetry-negotiated fleets only). WorkUnits above
	// already includes remote expansion work — the coordinator counts
	// every ExpandResponse it absorbs — so RemoteWorkUnits is the
	// peer-measured cross-check of that same work.
	RemoteCalls     int64 `json:"remote_calls,omitempty"`
	RemoteWorkUnits int64 `json:"remote_work_units,omitempty"`
}

// NewLedger starts an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// AddExpanded adds n to the vertices-expanded counter. Algorithms
// accumulate locally during a search and flush the total here once.
func (l *Ledger) AddExpanded(n int64) {
	if l == nil || n == 0 {
		return
	}
	l.expanded.Add(n)
}

// Expanded returns the vertices expanded so far. The evaluator brackets a
// search call with this to attribute the delta to the searched layer.
func (l *Ledger) Expanded() int64 {
	if l == nil {
		return 0
	}
	return l.expanded.Load()
}

// NoteFrontier records a frontier/queue size observation; the ledger
// keeps the peak.
func (l *Ledger) NoteFrontier(size int64) {
	if l == nil {
		return
	}
	for {
		cur := l.frontierPeak.Load()
		if size <= cur || l.frontierPeak.CompareAndSwap(cur, size) {
			return
		}
	}
}

// AddLayerWork attributes n work units (frontier expansions, Down-map
// member examinations, qualification checks) to a layer.
func (l *Ledger) AddLayerWork(layer int, n int64) {
	if l == nil || n == 0 || layer < 0 {
		return
	}
	if layer >= MaxLedgerLayers {
		layer = MaxLedgerLayers - 1
	}
	l.layerWork[layer].Add(n)
}

// AddShardWork attributes n expansion work units to a shard worker. The
// per-worker totals answer "did the partition keep the workers busy
// evenly?" for one query, the shard-level complement of AddLayerWork.
func (l *Ledger) AddShardWork(shard int, n int64) {
	if l == nil || n == 0 || shard < 0 {
		return
	}
	if shard >= MaxLedgerShards {
		shard = MaxLedgerShards - 1
	}
	l.shardWork[shard].Add(n)
}

// MergeRemote folds one shard peer's per-call ledger into the remote
// accounting. Safe during the query (the local Snapshot freeze happens
// after evaluation returns). Nil-safe on both sides.
func (l *Ledger) MergeRemote(s *LedgerSnapshot) {
	if l == nil || s == nil {
		return
	}
	l.remoteCalls.Add(1)
	l.remoteUnits.Add(s.WorkUnits)
}

// WorkUnits returns the total work units attributed so far: the sum of
// the per-layer counters, falling back to the raw expansion count when
// nothing was layer-attributed (direct evaluation paths).
func (l *Ledger) WorkUnits() int64 {
	if l == nil {
		return 0
	}
	var sum int64
	for i := range l.layerWork {
		sum += l.layerWork[i].Load()
	}
	if sum == 0 {
		return l.expanded.Load()
	}
	return sum
}

// Snapshot finalizes the ledger: the first call freezes the counters;
// subsequent calls return the same snapshot. Nil-safe (returns nil).
func (l *Ledger) Snapshot() *LedgerSnapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snap != nil {
		return l.snap
	}
	s := &LedgerSnapshot{
		Expanded:     l.expanded.Load(),
		FrontierPeak: l.frontierPeak.Load(),
		WorkUnits:    l.WorkUnits(),
	}
	top := -1
	for i := range l.layerWork {
		if l.layerWork[i].Load() > 0 {
			top = i
		}
	}
	if top >= 0 {
		s.LayerWork = make([]int64, top+1)
		for i := 0; i <= top; i++ {
			s.LayerWork[i] = l.layerWork[i].Load()
		}
	}
	topShard := -1
	for i := range l.shardWork {
		if l.shardWork[i].Load() > 0 {
			topShard = i
		}
	}
	if topShard >= 0 {
		s.ShardWork = make([]int64, topShard+1)
		for i := 0; i <= topShard; i++ {
			s.ShardWork[i] = l.shardWork[i].Load()
		}
	}
	s.RemoteCalls = l.remoteCalls.Load()
	s.RemoteWorkUnits = l.remoteUnits.Load()
	l.snap = s
	return s
}

type ledgerCtxKey struct{}

// ContextWithLedger installs a ledger into the context, alongside
// whatever span is already there.
func ContextWithLedger(ctx context.Context, l *Ledger) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, ledgerCtxKey{}, l)
}

// LedgerFromContext returns the context's ledger, or nil. All Ledger
// methods are nil-safe, so callers use the result unconditionally.
func LedgerFromContext(ctx context.Context) *Ledger {
	if ctx == nil {
		return nil
	}
	l, _ := ctx.Value(ledgerCtxKey{}).(*Ledger)
	return l
}
