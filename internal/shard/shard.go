// Package shard executes one keyword-search query across many workers by
// decomposing the backward expansions of bkws/bidir over the edge-cut
// partitioning of internal/partition — the BLINKS/EMBANKS decomposition:
// expansion stays block-local, and frontiers cross block boundaries only
// through portal vertices, stitched back together by a coordinator.
//
// Three roles:
//
//   - Planner materializes per-block sub-indexes (block-local in-adjacency
//     in CSR form plus portal adjacency annotated with the owning block)
//     from a partition.Partitioning.
//   - Executor is a bounded worker pool; each unit of work is one
//     verification chunk or one answer's witness assembly.
//   - Coordinator runs the level-synchronous scatter-gather: one Expand
//     call per round carries every (keyword × block) slot with new
//     settlements; between rounds it routes portal-crossing frontier
//     messages to the owning block, merges newly settled vertices into
//     the per-root Σdist bookkeeping, and early-stops the whole fleet once
//     no undiscovered root can beat the current k-th answer.
//
// The Coordinator talks to shards exclusively through the request/response
// structs below (ShardServer), and the protocol is stateless by design:
// an ExpandRequest carries one round's exact frontiers, and the shard
// answers from the immutable plan alone — no per-query state lives on the
// shard side. Statelessness is what makes the network boundary
// (internal/shardrpc) survivable: a round request is a pure function of
// (plan, request), so it can be retried, duplicated, hedged, or failed
// over to a different replica mid-query with no resynchronization and no
// risk of double-counting — the coordinator's mirror is the only
// authority on what is settled (see DESIGN.md §9).
//
// Answers are byte-identical to the sequential bkws/bidir paths at every
// worker count: the level-synchronous rounds compute the same exact BFS
// distances, matches are sorted by the same total (score, Key) order, and
// the strict Σdist early-stop bound admits exactly the exhaustive top-k
// prefix (see the tie-safety note in search.Rooted's SearchCtx).
package shard

import (
	"context"

	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
)

// DefaultBlockSize is the partition target block size when Options leaves
// it zero.
const DefaultBlockSize = 200

// Options configures sharded execution.
type Options struct {
	// Workers is the executor pool size — the number of verification
	// chunks and witness assemblies in flight at once. A round's expansion
	// is one Expand call whatever the pool size. Values below 1 mean 1.
	Workers int
	// BlockSize is the partition target block size (0 = DefaultBlockSize).
	BlockSize int
	// Seed controls partition.BFSGrowSeed's seed order (0 = ascending).
	Seed int64
	// Cache, when non-nil, shares plans across Algorithm instances (the
	// server's bkws and bidir evaluators share one per index version, so
	// the data graph is planned once per version).
	Cache *PlanCache
	// Server, when non-nil, supplies the ShardServer a prepared search's
	// coordinator dispatches to for the given plan — the stage-2 hook: the
	// HTTP server plugs in a shardrpc client here, and prepares this
	// algorithm only for a data graph the peers serve. Returning nil falls
	// back to the in-process Local, as does leaving Server nil.
	Server func(*Plan) ShardServer
	// Metrics, when non-nil, receives the bigindex_shard_* counters.
	Metrics *Metrics
}

func (o Options) blockSize() int {
	if o.BlockSize < 1 {
		return DefaultBlockSize
	}
	return o.BlockSize
}

// ExpandRequest is one level-synchronous round's expansion work for one
// shard server: every (keyword, block) slot that settled new vertices at
// distance Level, each to be expanded one hop along block-local in-edges.
//
// Each slot's Frontier is the complete input — the shard holds no memory
// of earlier rounds. Because the request carries its whole input and the
// plan is immutable, Expand is idempotent and replica-agnostic: the same
// request sent twice, to two replicas, or to a replica that never saw
// rounds 0..Level-1 returns the same answer. A transport may therefore
// split a round's slots across peers and send each share separately.
type ExpandRequest struct {
	Level int32
	Slots []ExpandSlot
}

// ExpandSlot is one (keyword, block) share of a round. Frontier lists the
// vertices of Block that keyword Kw settled at the round's Level; it is
// non-empty, since slots with nothing newly settled are not sent.
type ExpandSlot struct {
	Kw       int
	Block    int
	Frontier []graph.V
}

// PortalMsg is one frontier crossing: vertex V (owned by Block) was
// reached from another block and is a settlement candidate at the next
// level. The classic portal-stitching message of bi-level search.
type PortalMsg struct {
	V     graph.V
	Block int32
}

// ExpandResponse answers an ExpandRequest slot by slot: Slots[i] is the
// outcome of the request's Slots[i].
type ExpandResponse struct {
	Slots []SlotResult
}

// SlotResult is one slot's outcome: the frontier's in-block in-neighbors
// (Local, deduplicated within the slot — settlement candidates at Level+1
// in the same block) and the portal crossings (Outbox). The shard cannot
// know which candidates the coordinator already settled in earlier
// rounds; the coordinator's mirror filters duplicates, which is what keeps
// the protocol stateless.
type SlotResult struct {
	Local  []graph.V
	Outbox []PortalMsg
	// Expanded counts frontier vertices whose adjacency was scanned (the
	// ledger's vertices-expanded unit).
	Expanded int
	// Err marks a slot the transport could not serve: it split the round,
	// and every replica of this slot's share failed past budget. The other
	// slots are valid. Shards never set it, and it does not cross the wire.
	Err error
}

// VerifyRequest asks a shard to verify candidate roots by forward
// expansion (bidir's verification phase): exact minimum distances from
// each root to every query label within DMax. Verification reads only the
// immutable graph, so any shard or replica can serve any root — like
// Expand it is a pure function of the plan, retryable and hedgeable.
type VerifyRequest struct {
	Labels []graph.Label
	DMax   int
	Roots  []graph.V
}

// VerifyResponse carries the matches of the roots that verified, in root
// order, plus the number of roots attempted (the bidir work unit).
type VerifyResponse struct {
	Matches  []search.Match
	Verified int
}

// ShardServer is the coordinator-facing boundary. Both calls are pure
// functions of the immutable plan and the request. An error means the
// shard could not serve the request at all (network failure, every
// replica down, mismatched graph); an Expand that was served only in part
// answers the lost slots with SlotResult.Err instead. A served-but-
// cancelled request returns a partial response and no error. The
// in-process Local never fails; the shardrpc client surfaces terminal
// transport failures here, and the coordinator turns them into coverage
// loss, never into wrong answers.
type ShardServer interface {
	Expand(ctx context.Context, req *ExpandRequest) (*ExpandResponse, error)
	Verify(ctx context.Context, req *VerifyRequest) (*VerifyResponse, error)
}

// Metrics is the bigindex_shard_* instrument set, shared by every sharded
// evaluator of a server.
type Metrics struct {
	Queries *obs.CounterVec // sharded searches by algo
	Tasks   *obs.Counter    // (keyword × block) expansion slots and verify chunks dispatched
	Portal  *obs.Counter    // portal-crossing frontier messages routed
	Rounds  *obs.Histogram  // level-synchronous rounds per sharded search
	Lost    *obs.Counter    // (keyword × block) slots abandoned to shard failure
}

// NewMetrics registers the shard metrics on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Queries: reg.CounterVec("bigindex_shard_queries_total",
			"Sharded searches by algorithm.", "algo"),
		Tasks: reg.Counter("bigindex_shard_tasks_total",
			"Expansion slots (keyword x block) and verification chunks dispatched to shards."),
		Portal: reg.Counter("bigindex_shard_portal_messages_total",
			"Portal-crossing frontier messages routed between blocks."),
		Rounds: reg.Histogram("bigindex_shard_rounds",
			"Level-synchronous rounds per sharded search.",
			[]float64{1, 2, 3, 4, 5, 6, 8, 12, 16}),
		Lost: reg.Counter("bigindex_shard_lost_blocks_total",
			"Blocks abandoned mid-query because every replica failed past budget."),
	}
}
