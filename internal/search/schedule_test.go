package search_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"bigindex/internal/obs"
	"bigindex/internal/search"
	"bigindex/internal/search/bidir"
	"bigindex/internal/search/bkws"
	"bigindex/internal/search/blinks"
)

// scheduleDigests pin each rooted search's schedule: over the kernel
// corpus below, the answers (Key, Score, Nodes) of every query and the
// vertices-expanded and frontier-peak values the search reports to its
// ledger. A change that reorders expansions, expands more or fewer
// vertices, or counts them differently moves a digest.
var scheduleDigests = map[string]string{
	"bkws":   "35e264d40a704bec15df902f8149cfc3fd18a3eb93a562aa2cbd58d2bbc389d5",
	"bidir":  "ed8ee3623442c13fe868b4c7a68a8b9e02f34cf04268f90014c1411b93c92684",
	"blinks": "e80e25f6adcaee185f687c6e2c365360aa085486fc20582589f44206f9f6bc1a",
}

// scheduleDigest runs every query of the kernel corpus (random graphs
// with cycles and self-loops; d_max 1, 3, 5; K 0, 1, 3, 10) through a
// and hashes what each search returns and reports.
func scheduleDigest(t *testing.T, mk func(dmax int) search.Algorithm) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	num := func(x int64) { buf = binary.AppendVarint(buf, x) }
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(60)
		g := kernelGraph(rng, n, rng.Intn(3*n), 2+rng.Intn(4))
		for _, dmax := range []int{1, 3, 5} {
			p, err := mk(dmax).Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range randomCases(rng, g, dmax, 6) {
				led := obs.NewLedger()
				ms, err := p.SearchCtx(obs.ContextWithLedger(context.Background(), led), c.q, c.k)
				if err != nil {
					t.Fatal(err)
				}
				buf = buf[:0]
				num(int64(len(ms)))
				for _, m := range ms {
					buf = append(buf, m.Key()...)
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Score))
					for _, v := range m.Nodes {
						num(int64(v))
					}
				}
				snap := led.Snapshot()
				num(snap.Expanded)
				num(snap.FrontierPeak)
				h.Write(buf)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSchedulesPinned: bkws, bidir and Blinks keep the expansion order and
// the work accounting the digests were taken at.
func TestSchedulesPinned(t *testing.T) {
	algos := map[string]func(dmax int) search.Algorithm{
		"bkws":   func(dmax int) search.Algorithm { return bkws.New(dmax) },
		"bidir":  func(dmax int) search.Algorithm { return bidir.New(dmax) },
		"blinks": func(dmax int) search.Algorithm { return blinks.New(blinks.Options{DMax: dmax}) },
	}
	for name, mk := range algos {
		if got := scheduleDigest(t, mk); got != scheduleDigests[name] {
			t.Errorf("%s: schedule digest %s, want %s", name, got, scheduleDigests[name])
		}
	}
}
