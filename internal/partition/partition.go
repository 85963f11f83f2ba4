// Package partition divides a graph into connected blocks of bounded size,
// the decomposition of Blinks' bi-level index (Sec. 5.3 of the paper; He et
// al., SIGMOD'07): blocks stitched together through *portal* vertices. The
// paper used METIS; this package is the from-scratch substitute: a
// BFS-grown partitioner that produces balanced blocks with a modest edge
// cut. internal/shard plans its blocks with it.
package partition

import (
	"math/rand"
	"sort"

	"bigindex/internal/graph"
)

// Partitioning assigns every vertex to exactly one block.
type Partitioning struct {
	g *graph.Graph
	// BlockOf[v] is the block id of v.
	BlockOf []int
	// Blocks[b] lists the member vertices of block b, ascending.
	Blocks [][]graph.V
	// InPortals[b] lists vertices of block b with an in-edge from outside
	// the block: the entry points of backward expansion into b.
	InPortals [][]graph.V
	// OutPortals[b] lists vertices of block b with an out-edge leaving the
	// block.
	OutPortals [][]graph.V
}

// NumBlocks reports the number of blocks.
func (p *Partitioning) NumBlocks() int { return len(p.Blocks) }

// Graph returns the partitioned graph.
func (p *Partitioning) Graph() *graph.Graph { return p.g }

// BlockSizes reports the smallest and largest block cardinality — the
// skew a shard scheduler has to live with. (0, 0) for an empty graph.
func (p *Partitioning) BlockSizes() (minSize, maxSize int) {
	for i, b := range p.Blocks {
		if i == 0 || len(b) < minSize {
			minSize = len(b)
		}
		if len(b) > maxSize {
			maxSize = len(b)
		}
	}
	return minSize, maxSize
}

// EdgeCut reports the number of edges crossing block boundaries.
func (p *Partitioning) EdgeCut() int {
	cut := 0
	for _, e := range p.g.Edges() {
		if p.BlockOf[e.From] != p.BlockOf[e.To] {
			cut++
		}
	}
	return cut
}

// BFSGrow partitions g into connected blocks of at most targetSize vertices
// by repeatedly seeding an unassigned vertex and growing a breadth-first
// region over the undirected skeleton until the block is full. Seeds are
// chosen in ascending vertex order, so the result is deterministic.
func BFSGrow(g *graph.Graph, targetSize int) *Partitioning {
	return BFSGrowSeed(g, targetSize, 0)
}

// BFSGrowSeed is BFSGrow with a controlled seed order: seed 0 keeps the
// ascending-vertex order, any other value visits seed candidates in a
// pseudo-random permutation derived from it. Either way the result is a
// pure function of (g, targetSize, seed) — block IDs are stable across
// runs and processes, which shard planning relies on (a coordinator and
// its shard servers must agree on vertex→block ownership by exchanging
// only the seed, never the partition itself).
func BFSGrowSeed(g *graph.Graph, targetSize int, seed int64) *Partitioning {
	if targetSize < 1 {
		targetSize = 1
	}
	n := g.NumVertices()
	order := make([]int, n)
	if seed == 0 {
		for i := range order {
			order[i] = i
		}
	} else {
		order = rand.New(rand.NewSource(seed)).Perm(n)
	}
	blockOf := make([]int, n)
	for i := range blockOf {
		blockOf[i] = -1
	}

	var blocks [][]graph.V
	for _, seed := range order {
		if blockOf[seed] != -1 {
			continue
		}
		b := len(blocks)
		var members []graph.V
		queue := []graph.V{graph.V(seed)}
		blockOf[seed] = b
		for len(queue) > 0 && len(members) < targetSize {
			v := queue[0]
			queue = queue[1:]
			members = append(members, v)
			for _, w := range neighborsBoth(g, v) {
				if blockOf[w] == -1 && len(members)+len(queue) < targetSize {
					blockOf[w] = b
					queue = append(queue, w)
				}
			}
		}
		// Vertices still queued were claimed but not emitted; keep them in
		// the block (the claim already bounded the size).
		members = append(members, queue...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		blocks = append(blocks, members)
	}

	p := &Partitioning{
		g:          g,
		BlockOf:    blockOf,
		Blocks:     blocks,
		InPortals:  make([][]graph.V, len(blocks)),
		OutPortals: make([][]graph.V, len(blocks)),
	}
	for v := graph.V(0); int(v) < n; v++ {
		b := blockOf[v]
		for _, w := range g.In(v) {
			if blockOf[w] != b {
				p.InPortals[b] = append(p.InPortals[b], v)
				break
			}
		}
		for _, w := range g.Out(v) {
			if blockOf[w] != b {
				p.OutPortals[b] = append(p.OutPortals[b], v)
				break
			}
		}
	}
	return p
}

func neighborsBoth(g *graph.Graph, v graph.V) []graph.V {
	out := g.Out(v)
	in := g.In(v)
	both := make([]graph.V, 0, len(out)+len(in))
	both = append(both, out...)
	both = append(both, in...)
	return both
}
