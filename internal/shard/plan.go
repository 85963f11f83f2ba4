package shard

import (
	"sync"

	"bigindex/internal/graph"
	"bigindex/internal/partition"
)

// Planner turns a partitioning into per-block sub-indexes. It carries no
// per-query state and is safe for concurrent use.
type Planner struct {
	opt Options
}

// NewPlanner returns a planner with the given partition options (Workers
// and Metrics are ignored here; only BlockSize and Seed shape the plan).
func NewPlanner(opt Options) *Planner { return &Planner{opt: opt} }

// Plan is the immutable per-graph sharding layout: the partitioning, a
// vertex → in-block position index, and one blockIndex per block. A plan
// is built once per index version and shared by every query and every
// worker count against that version.
type Plan struct {
	g      *graph.Graph
	part   *partition.Partitioning
	pos    []int32 // pos[v] = index of v within Blocks[BlockOf[v]]
	blocks []blockIndex
}

// blockIndex is one block's sub-index: the member list and the members'
// in-adjacency split into block-local edges (plain CSR over global vertex
// ids) and portal edges (in-neighbors living in other blocks, annotated
// with the owning block). The split is what makes a round lock-free: a
// worker expanding (kw, block) touches only this block's rows and emits
// the remote side as outbox messages.
type blockIndex struct {
	members   []graph.V
	localOff  []uint32
	localAdj  []graph.V
	remoteOff []uint32
	remoteAdj []PortalMsg
}

// Plan materializes the per-block sub-indexes for an existing partitioning.
func (pl *Planner) Plan(p *partition.Partitioning) *Plan {
	g := p.Graph()
	n := g.NumVertices()
	pos := make([]int32, n)
	for _, members := range p.Blocks {
		for i, v := range members {
			pos[v] = int32(i)
		}
	}
	blocks := make([]blockIndex, len(p.Blocks))
	for b := range p.Blocks {
		members := p.Blocks[b]
		bi := blockIndex{
			members:   members,
			localOff:  make([]uint32, len(members)+1),
			remoteOff: make([]uint32, len(members)+1),
		}
		for i, v := range members {
			for _, u := range g.In(v) {
				if p.BlockOf[u] == b {
					bi.localAdj = append(bi.localAdj, u)
				} else {
					bi.remoteAdj = append(bi.remoteAdj, PortalMsg{V: u, Block: int32(p.BlockOf[u])})
				}
			}
			bi.localOff[i+1] = uint32(len(bi.localAdj))
			bi.remoteOff[i+1] = uint32(len(bi.remoteAdj))
		}
		blocks[b] = bi
	}
	return &Plan{g: g, part: p, pos: pos, blocks: blocks}
}

// PlanGraph partitions g with the planner's BlockSize/Seed and plans it.
func (pl *Planner) PlanGraph(g *graph.Graph) *Plan {
	return pl.Plan(partition.BFSGrowSeed(g, pl.opt.blockSize(), pl.opt.Seed))
}

// Graph returns the planned graph.
func (p *Plan) Graph() *graph.Graph { return p.g }

// Partitioning returns the underlying partitioning.
func (p *Plan) Partitioning() *partition.Partitioning { return p.part }

// NumBlocks reports the number of blocks.
func (p *Plan) NumBlocks() int { return len(p.blocks) }

// EdgeCut reports the number of edges crossing block boundaries.
func (p *Plan) EdgeCut() int { return p.part.EdgeCut() }

// AdjacencyOf reconstructs every vertex's in-adjacency as the sub-indexes
// see it: block-local neighbors and portal messages, in CSR row order.
// Invariant checks and debugging use it; query execution reads the CSR
// rows directly.
func (p *Plan) AdjacencyOf() (local [][]graph.V, remote [][]PortalMsg) {
	n := p.g.NumVertices()
	local = make([][]graph.V, n)
	remote = make([][]PortalMsg, n)
	for b := range p.blocks {
		bi := &p.blocks[b]
		for i, v := range bi.members {
			local[v] = bi.localAdj[bi.localOff[i]:bi.localOff[i+1]]
			remote[v] = bi.remoteAdj[bi.remoteOff[i]:bi.remoteOff[i+1]]
		}
	}
	return local, remote
}

// PlanCache builds and caches one Plan per graph identity. Graphs are
// immutable (a mutation batch swaps in a new *graph.Graph), so the
// pointer is a sound cache key and a cached plan can never go stale —
// this is also what gives sharded queries epoch consistency: a query
// resolves its plan through the index-state bundle it loaded at entry,
// and a concurrent index swap builds against the new graph under a new
// key without disturbing in-flight plans.
type PlanCache struct {
	planner *Planner
	mu      sync.Mutex
	plans   map[*graph.Graph]*Plan
}

// NewPlanCache returns a cache planning with the given options.
func NewPlanCache(opt Options) *PlanCache {
	return &PlanCache{planner: NewPlanner(opt), plans: map[*graph.Graph]*Plan{}}
}

// For returns (building on first use) the plan for g.
func (pc *PlanCache) For(g *graph.Graph) *Plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p, ok := pc.plans[g]; ok {
		return p
	}
	p := pc.planner.PlanGraph(g)
	pc.plans[g] = p
	return p
}

// Peek returns the cached plan for g without building one; nil when no
// sharded query has planned g yet. Stats endpoints use it so that
// observing shard state never pays (or hides) the cost of planning.
func (pc *PlanCache) Peek(g *graph.Graph) *Plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.plans[g]
}

// Len reports how many graphs have cached plans (hierarchical evaluation
// plans each summary layer it routes a sharded query to).
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.plans)
}
