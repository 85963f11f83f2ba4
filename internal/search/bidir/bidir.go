// Package bidir implements bidirectional expansion keyword search in the
// style of Kacholia et al. (VLDB'05), the fourth semantics plugged into
// BiG-index (Sec. 5 lists it among the algorithms the framework optimizes
// "with minor modifications").
//
// BANKS-style purely backward search wastes effort expanding from frequent
// keywords: their huge posting lists flood the graph. Bidirectional
// expansion instead grows *backward* only from the most selective keyword —
// an activation source — and verifies each candidate root it reaches by
// expanding *forward* toward the remaining keywords. Since every answer
// root must reach the selective keyword within d_max, restricting the
// backward phase to it loses nothing; the forward phase recomputes exact
// distances, so the answers (distinct-root, Σ-distance scored) are
// identical to bkws/Blinks — only the exploration strategy differs.
//
// Candidates are verified in increasing backward distance (the activation
// order), which yields a sound top-k stop: a future root's score is at
// least its backward distance to the selective keyword. The loop is
// search.Rooted under the search.Bidirectional schedule.
package bidir

import (
	"bigindex/internal/search"
	"bigindex/internal/shard"
)

// New returns a bidir instance with distance bound dmax.
func New(dmax int) *search.Rooted {
	return search.NewRooted("bidir", dmax, search.Bidirectional, nil)
}

// NewSharded returns a bidir variant that executes each search across the
// internal/shard worker pool: the backward activation from the selective
// keyword runs block-sharded, and forward verifications — bidir's
// dominant cost, independent per candidate — run in parallel chunks.
// Answers are byte-identical to New's at every worker count.
func NewSharded(dmax int, opt shard.Options) search.Algorithm {
	return shard.New(shard.ModeBidir, dmax, opt)
}
