//go:build race

package shard_test

// raceEnabled: the race detector makes sync.Pool drop a random share of
// the items put back, so pooled buffers are reallocated at random and
// allocation counts say nothing about the code.
const raceEnabled = true
