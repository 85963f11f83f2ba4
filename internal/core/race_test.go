//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop a random share of
// the items put back and instruments allocations, so allocation volumes
// say nothing about the code.
const raceEnabled = true
