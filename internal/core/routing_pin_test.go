package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bigindex/internal/cost"
	"bigindex/internal/graph"
	"bigindex/internal/search/bkws"
)

// routingPins are the digests of TestRoutingPinned, one per (β, degree
// exponent): for every query of the corpus, the chosen layer and, per
// layer, the bits of cost_q(m), Gen^m(Q) and Def 4.1 Condition 1 legality.
// A change to how Formula 4 is computed or argmin'd moves them.
var routingPins = map[string]string{
	"beta=0.1/deg=0": "a1226c94b5846bf99c9f9f006e73f00b995260c981d669bb1cf31320e4449974",
	"beta=0.1/deg=1": "81ed37270325433e20d9b520607b0e7ba95b69259b3b5e791e2a5ca9fb832051",
	"beta=0.1/deg=3": "e322ea8691e040369eed5f40810daf4e14361c46e1badbb9b15dd73347e8e02c",
	"beta=0.5/deg=0": "376a8ec36e9a0fa87ac60703e4d58241d93f5b66eba84053b87aa084afac229c",
	"beta=0.5/deg=1": "cffc373b38cbc18fd3111fc81e0d004db23856a3f8cb8f1d1547d92a5830c70d",
	"beta=0.5/deg=3": "d528fb3d9b5b53b5739e6c41f12ac44890be8b6562937c4def79a2ecddffd590",
	"beta=0.9/deg=0": "5e4fc8135a857143cea77210fd819a127d690e40a7a09963a1031050af5feaa0",
	"beta=0.9/deg=1": "09a53d70c717342c4c269cba9f9cc9b5bf6f136f369c04faf0bd82be70894c3d",
	"beta=0.9/deg=3": "c5313d8aa765d97238f7d72599bb5f45b703ea3353cd7d86d98174c0283799b9",
}

// TestRoutingPinned pins Formula 4 routing bit for bit over a seeded
// corpus, and checks that the three places a query's plan surfaces agree:
// Explain, EvalLayerCtx(-1)'s Breakdown, and cost.OptimalLayerEx.
func TestRoutingPinned(t *testing.T) {
	ds := smallDataset(4141)
	idx := buildIndex(t, ds)
	if idx.NumLayers() < 3 {
		t.Fatalf("corpus index has %d layers; the pin needs summary layers to route between", idx.NumLayers())
	}
	rng := rand.New(rand.NewSource(4142))
	var corpus [][]graph.Label
	for len(corpus) < 40 {
		q := pickQuery(rng, ds, 1+len(corpus)%3, 2)
		if q == nil {
			t.Fatal("no frequent labels")
		}
		corpus = append(corpus, q)
	}
	for _, beta := range []float64{0.1, 0.5, 0.9} {
		for _, deg := range []int{0, 1, 3} {
			name := fmt.Sprintf("beta=%.1f/deg=%d", beta, deg)
			opt := DefaultEvalOptions()
			opt.Beta, opt.DegreeExponent = beta, deg
			ev := NewEvaluator(idx, bkws.New(3), opt)
			h := sha256.New()
			put := func(v uint64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
			layers, illegal := map[int]int{}, 0
			for qi, q := range corpus {
				p := ev.Explain(q)
				_, bd, err := ev.EvalLayerCtx(context.Background(), q, -1)
				if err != nil {
					t.Fatal(err)
				}
				best, costs := cost.OptimalLayerEx(idx, q, beta, deg)
				if p.Layer != best || bd.Layer != best {
					t.Fatalf("%s query %d: Explain layer %d, Breakdown layer %d, OptimalLayerEx %d", name, qi, p.Layer, bd.Layer, best)
				}
				if len(p.Costs) != idx.NumLayers() || len(bd.Costs) != idx.NumLayers() || len(costs) != idx.NumLayers() {
					t.Fatalf("%s query %d: cost vectors %d/%d/%d long, index has %d layers", name, qi, len(p.Costs), len(bd.Costs), len(costs), idx.NumLayers())
				}
				layers[best]++
				put(uint64(best))
				for m := range costs {
					pc, bc := p.Costs.Cost(m, p.Beta), bd.Costs.Cost(m, beta)
					if math.Float64bits(pc) != math.Float64bits(costs[m]) || math.Float64bits(bc) != math.Float64bits(costs[m]) {
						t.Fatalf("%s query %d layer %d: Explain %v, Breakdown %v, OptimalLayerEx %v", name, qi, m, pc, bc, costs[m])
					}
					if !slices.Equal(p.Costs[m].Gen, bd.Costs[m].Gen) || p.Costs[m].Legal != bd.Costs[m].Legal {
						t.Fatalf("%s query %d layer %d: Explain and Breakdown disagree on Gen^m(Q) or legality", name, qi, m)
					}
					put(math.Float64bits(costs[m]))
					put(uint64(len(p.Costs[m].Gen)))
					for _, l := range p.Costs[m].Gen {
						put(uint64(l))
					}
					if p.Costs[m].Legal {
						put(1)
					} else {
						put(0)
						illegal++
					}
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%s: layers chosen %v, %d illegal (query, layer) pairs", name, layers, illegal)
			if illegal == 0 {
				t.Fatalf("%s: no query merges keywords at any layer; the pin does not exercise Condition 1", name)
			}
			if want := routingPins[name]; got != want {
				t.Errorf("%s: routing digest %s, want %s", name, got, want)
			}
		}
	}
}
