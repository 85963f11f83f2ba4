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

// scheduleDigests pin each rooted search over the kernel corpus below,
// in two halves. The answers half hashes the answers (Key, Score, Nodes)
// of every query: it is the same for all three searches and no change to
// a schedule may move it. The work half hashes the vertices-expanded and
// frontier-peak values each search reports to its ledger: a change that
// reorders expansions, expands more or fewer vertices, or counts them
// differently moves it.
var scheduleDigests = map[string][2]string{
	"bkws":   {answersDigest, "91d73424065b6a99421815f4b864c738d0d91fb963ef2b545d1680a1aed7a480"},
	"bidir":  {answersDigest, "324afb3954a4f2d7d05c882e9b1f13e21ff1827def7b014c79d71e0092b3c763"},
	"blinks": {answersDigest, "91f1b168cf41932e24b8cf249f599212a0068fc382d8baa4301b57e38a07179a"},
}

const answersDigest = "96fcec7528eed1d95066ab85b0f5c4306297419f3648d90d1e9b794d7bcf709f"

// scheduleDigest runs every query of the kernel corpus (random graphs
// with cycles and self-loops; d_max 1, 3, 5; K 0, 1, 3, 10) through a
// and hashes what each search returns and what it reports.
func scheduleDigest(t *testing.T, mk func(dmax int) search.Algorithm) (answers, work string) {
	t.Helper()
	ha, hw := sha256.New(), sha256.New()
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
				ha.Write(buf)
				buf = buf[:0]
				snap := led.Snapshot()
				num(snap.Expanded)
				num(snap.FrontierPeak)
				hw.Write(buf)
			}
		}
	}
	return hex.EncodeToString(ha.Sum(nil)), hex.EncodeToString(hw.Sum(nil))
}

// TestSchedulesPinned: bkws, bidir and Blinks return the answers the
// digests were taken at, and keep their expansion order and work
// accounting.
func TestSchedulesPinned(t *testing.T) {
	algos := map[string]func(dmax int) search.Algorithm{
		"bkws":   func(dmax int) search.Algorithm { return bkws.New(dmax) },
		"bidir":  func(dmax int) search.Algorithm { return bidir.New(dmax) },
		"blinks": func(dmax int) search.Algorithm { return blinks.New(blinks.Options{DMax: dmax}) },
	}
	for name, mk := range algos {
		answers, work := scheduleDigest(t, mk)
		if want := scheduleDigests[name]; answers != want[0] || work != want[1] {
			t.Errorf("%s: answers digest %s, work digest %s; want %s, %s", name, answers, work, want[0], want[1])
		}
	}
}
