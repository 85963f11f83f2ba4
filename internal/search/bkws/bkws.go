// Package bkws implements backward keyword search (Sec. 5.1 of the paper;
// the BANKS lineage of Bhalotia et al., ICDE'02, with the distinct-root
// refinement of He et al.): an answer is a root vertex r that reaches, along
// out-edges, at least one vertex labeled q_i within d_max hops for every
// query keyword, scored by Σ_i dist(r, p_i) with p_i the nearest q_i vertex.
//
// The search runs backward: every keyword seeds a multi-source traversal
// along in-edges from the vertices carrying that keyword; a vertex reached
// by all traversals is an answer root. Frontiers are expanded smallest
// first, the paper's "the vertex set V_i with the minimal size is
// processed" rule, and top-k search stops once no undiscovered root can
// beat the current k-th score. The loop is search.Rooted under the
// search.BANKS schedule; bkws needs no per-graph index, which is its point
// of comparison with Blinks.
package bkws

import (
	"bigindex/internal/search"
	"bigindex/internal/shard"
)

// New returns a bkws instance with distance bound dmax (the d_max of the
// keyword query tuple (Q, d_max)).
func New(dmax int) *search.Rooted {
	return search.NewRooted("bkws", dmax, search.BANKS, nil)
}

// NewSharded returns a bkws variant that executes each search across the
// internal/shard worker pool: per-(keyword × block) backward expansions
// in parallel, stitched at portal vertices by a scatter-gather
// coordinator. Answers are byte-identical to New's at every worker count
// (both equal the exhaustive top-k prefix under the strict early-stop
// bound).
func NewSharded(dmax int, opt shard.Options) search.Algorithm {
	return shard.New(shard.ModeBKWS, dmax, opt)
}
