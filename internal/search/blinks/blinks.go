// Package blinks implements the ranked keyword search of He et al.
// (SIGMOD'07), the rkws semantics of Sec. 5.3: distinct-root answers ranked
// by Σ_i dist(r, p_i), found by backward expansion with the BLINKS top-k
// stopping rule.
//
// Each keyword runs its own Dijkstra-style backward expansion, and the
// keywords take turns one finalize event at a time, the keyword with the
// fewest queued vertices first. Every in-edge weighs one hop, so each
// keyword's priority queue is a bucket queue indexed by distance in which
// only the buckets d and d+1 are ever non-empty. The loop is search.Rooted
// under the search.BLINKS schedule.
//
// BLINKS proper accelerates the expansion with a bi-level index: a graph
// partition (the paper's METIS) with a precomputed intra-block distance
// table per block. This package used to build one (over
// internal/partition's BFS-grown blocks), but on the dense kernel the
// tables lost: at 120k entities the search took 2.3× as long with them as
// without, and building them cost ~105 ms and 11 MiB per layer, paid again
// after every mutation (EXPERIMENTS.md). Prepare is therefore O(1) and
// keeps no per-graph index.
package blinks

import "bigindex/internal/search"

// Options configures the Blinks instance.
type Options struct {
	// DMax is the pruning threshold τ_prune: answer roots must reach every
	// keyword within DMax hops (the paper's experiments use 5).
	DMax int
	// BlockSize is ignored.
	//
	// Deprecated: it sized the blocks of the bi-level index, which is gone
	// (see the package comment).
	BlockSize int
	// Score is the ranking function of Sec. 5.3's API (rank by scr over the
	// per-keyword distance vector); nil uses the distance sum of He et al.
	// Top-k early termination assumes the distance-based score; with a
	// custom Score the search exhausts the d_max horizon before truncating,
	// and rank preservation across index layers (Prop 5.3) is the caller's
	// responsibility.
	Score search.ScoreFunc
}

// New returns a Blinks instance.
func New(opt Options) *search.Rooted {
	return search.NewRooted("blinks", opt.DMax, search.BLINKS, opt.Score)
}
