package core

import (
	"context"
	"math/rand"
	"testing"

	"bigindex/internal/cost"
	"bigindex/internal/datagen"
	"bigindex/internal/graph"
	"bigindex/internal/search"
	"bigindex/internal/search/bidir"
	"bigindex/internal/search/bkws"
	"bigindex/internal/search/blinks"
	"bigindex/internal/search/rclique"
)

// smallDataset builds a deterministic small knowledge graph with a real
// taxonomy, the shared fixture of the core tests.
func smallDataset(seed int64) *datagen.Dataset {
	return datagen.Generate(datagen.Options{
		Name:          "test",
		Entities:      300,
		AvgOut:        2,
		Terms:         60,
		LeafTypes:     8,
		TypeBranching: 3,
		TypeHeight:    3,
		Relations:     16,
		Seed:          seed,
	})
}

func buildIndex(t *testing.T, ds *datagen.Dataset) *Index {
	t.Helper()
	opt := DefaultBuildOptions()
	opt.Search.SampleCount = 40
	opt.Search.SampleRadius = 2
	idx, err := Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func matchKeys(ms []search.Match) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.Key()] = m.Score
	}
	return out
}

func pickQuery(rng *rand.Rand, ds *datagen.Dataset, size, minCount int) []graph.Label {
	var pool []graph.Label
	for _, l := range ds.Graph.DistinctLabels() {
		if ds.Graph.LabelCount(l) >= minCount {
			pool = append(pool, l)
		}
	}
	if len(pool) < size {
		return nil
	}
	q := make([]graph.Label, size)
	for i := range q {
		q[i] = pool[rng.Intn(len(pool))]
	}
	return q
}

func TestBuildProducesLayers(t *testing.T) {
	ds := smallDataset(100)
	idx := buildIndex(t, ds)
	if idx.NumLayers() < 2 {
		t.Fatalf("expected at least one summary layer, got %d", idx.NumLayers())
	}
	st := idx.Stats()
	if st.Layers[0].Ratio != 1 {
		t.Fatal("layer 0 ratio must be 1")
	}
	for i := 1; i < len(st.Layers); i++ {
		if st.Layers[i].Size >= st.Layers[i-1].Size {
			t.Fatalf("layer %d did not shrink: %d -> %d", i, st.Layers[i-1].Size, st.Layers[i].Size)
		}
	}
	if idx.TotalSize() <= 0 {
		t.Fatal("TotalSize should be positive")
	}
	t.Logf("layers: %+v", st.Layers)
}

func TestChiUpAndSpecializeInverse(t *testing.T) {
	ds := smallDataset(101)
	idx := buildIndex(t, ds)
	for m := 1; m < idx.NumLayers(); m++ {
		// Every data vertex must be a member of its own chi-image.
		for v := 0; v < min(ds.Graph.NumVertices(), 100); v++ {
			s := idx.ChiUp(graph.V(v), 0, m)
			members := idx.SpecializeRoot(s, m)
			found := false
			for _, u := range members {
				if u == graph.V(v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("layer %d: vertex %d not in Spec(χ(%d))", m, v, v)
			}
		}
	}
}

func TestSpecializeKeywordEarlyVsLate(t *testing.T) {
	// isKey early filtering must not change the final candidate set
	// (Sec. 4.3.1 is a performance optimization).
	ds := smallDataset(102)
	idx := buildIndex(t, ds)
	rng := rand.New(rand.NewSource(1))
	for m := 1; m < idx.NumLayers(); m++ {
		lg := idx.LayerGraph(m)
		for trial := 0; trial < 20; trial++ {
			kw := pickQuery(rng, ds, 1, 2)
			if kw == nil {
				t.Skip("no frequent labels")
			}
			want := idx.Configs().GenLabel(kw[0], m)
			posting := lg.VerticesWithLabel(want)
			if len(posting) == 0 {
				continue
			}
			s := posting[rng.Intn(len(posting))]
			early := idx.SpecializeKeyword(s, m, kw[0], true)
			late := idx.SpecializeKeyword(s, m, kw[0], false)
			em, lm := toSet(early), toSet(late)
			if len(em) != len(lm) {
				t.Fatalf("layer %d: early %d vs late %d candidates", m, len(em), len(lm))
			}
			for v := range em {
				if !lm[v] {
					t.Fatalf("layer %d: early-only candidate %d", m, v)
				}
			}
		}
	}
}

func toSet(vs []graph.V) map[graph.V]bool {
	m := make(map[graph.V]bool, len(vs))
	for _, v := range vs {
		m[v] = true
	}
	return m
}

// TestEquivalenceTheorem is Thm 4.2: eval_Ont(G,Q,f) = eval(G,Q,f) for all
// three plugged algorithms, every layer of the hierarchy, and all
// optimization combinations.
func TestEquivalenceTheorem(t *testing.T) {
	ds := smallDataset(103)
	idx := buildIndex(t, ds)
	rng := rand.New(rand.NewSource(7))

	algos := []search.Algorithm{
		bkws.New(3),
		bidir.New(3),
		blinks.New(blinks.Options{DMax: 3, BlockSize: 16}),
		rclique.New(2),
	}
	for _, algo := range algos {
		ev := NewEvaluator(idx, algo, DefaultEvalOptions())
		for trial := 0; trial < 6; trial++ {
			size := 2
			if trial%2 == 1 {
				size = 3
			}
			q := pickQuery(rng, ds, size, 3)
			if q == nil {
				t.Skip("dataset lacks frequent labels")
			}
			want, err := ev.Direct(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			wm := matchKeys(want)

			for layer := 0; layer < idx.NumLayers(); layer++ {
				for _, flags := range []EvalOptions{
					{Beta: 0.5, ForcedLayer: layer},
					{Beta: 0.5, ForcedLayer: layer, SpecOrder: true, PathBased: true, IsKey: true},
					{Beta: 0.5, ForcedLayer: layer, PathBased: true},
					{Beta: 0.5, ForcedLayer: layer, IsKey: true},
				} {
					ev.SetOptions(flags)
					got, _, err := ev.Eval(q)
					if err != nil {
						t.Fatal(err)
					}
					gm := matchKeys(got)
					if len(gm) != len(wm) {
						t.Fatalf("%s layer %d flags %+v: %d answers, direct %d (q=%v)",
							algo.Name(), layer, flags, len(gm), len(wm), q)
					}
					for k, s := range wm {
						if gs, ok := gm[k]; !ok || gs != s {
							t.Fatalf("%s layer %d: key %s got %v want %v", algo.Name(), layer, k, gs, s)
						}
					}
				}
			}
		}
	}
}

// TestOptimalLayerEquivalence uses the cost model's automatic layer choice.
func TestOptimalLayerEquivalence(t *testing.T) {
	ds := smallDataset(104)
	idx := buildIndex(t, ds)
	rng := rand.New(rand.NewSource(9))
	algo := bkws.New(3)
	ev := NewEvaluator(idx, algo, DefaultEvalOptions())
	for trial := 0; trial < 10; trial++ {
		q := pickQuery(rng, ds, 2, 3)
		if q == nil {
			t.Skip("no frequent labels")
		}
		want, err := ev.Direct(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, bd, err := ev.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("auto layer %d: %d answers, want %d", bd.Layer, len(got), len(want))
		}
		if bd.Layer < 0 || bd.Layer >= idx.NumLayers() {
			t.Fatalf("layer out of range: %d", bd.Layer)
		}
		if len(bd.LayerCosts) != idx.NumLayers() {
			t.Fatalf("LayerCosts has %d entries", len(bd.LayerCosts))
		}
	}
}

// TestTopKEquivalence: evaluation with K = k returns exactly the first k
// answers of exhaustive direct evaluation, keys in rank order (rank
// preservation, Prop 5.3, with Prop 5.2's stopping bound kept strict), for
// every rooted algorithm at every forced layer and at the cost model's own
// choice (layer -1).
func TestTopKEquivalence(t *testing.T) {
	algos := []search.Algorithm{
		bkws.New(3),
		bidir.New(3),
		blinks.New(blinks.Options{DMax: 3, BlockSize: 16}),
	}
	for _, seed := range []int64{105, 106, 107} {
		ds := smallDataset(seed)
		idx := buildIndex(t, ds)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 8; trial++ {
			q := pickQuery(rng, ds, 2+trial%2, 3)
			if q == nil {
				t.Skip("no frequent labels")
			}
			for _, algo := range algos {
				ev := NewEvaluator(idx, algo, DefaultEvalOptions())
				all, err := ev.Direct(q, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 3, 10} {
					opt := DefaultEvalOptions()
					opt.K = k
					ev.SetOptions(opt)
					want := search.Truncate(all, k)
					for layer := -1; layer < idx.NumLayers(); layer++ {
						got, bd, err := ev.EvalLayerCtx(context.Background(), q, layer)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("seed %d %s layer %d (ran %d) k=%d: %d answers, want %d (q=%v)",
								seed, algo.Name(), layer, bd.Layer, k, len(got), len(want), q)
						}
						for i := range want {
							if got[i].Key() != want[i].Key() {
								t.Fatalf("seed %d %s layer %d (ran %d) k=%d rank %d: %s (score %v), want %s (score %v)",
									seed, algo.Name(), layer, bd.Layer, k, i, got[i].Key(), got[i].Score, want[i].Key(), want[i].Score)
							}
						}
					}
				}
			}
		}
	}
}

// TestCostModelImplementsInterface pins the cost.LayerGraphs contract.
func TestCostModelImplementsInterface(t *testing.T) {
	var _ cost.LayerGraphs = (*Index)(nil)
}

func TestRemoveOntologyMapping(t *testing.T) {
	ds := smallDataset(106)
	idx := buildIndex(t, ds)
	if idx.NumLayers() < 2 {
		t.Skip("need a summary layer")
	}
	// Pick a mapping used by layer 1.
	ms := idx.Layer(1).Config.Mappings()
	if len(ms) == 0 {
		t.Skip("empty config")
	}
	before := idx.NumLayers()
	dropped := idx.RemoveOntologyMapping(ms[0].From, ms[0].To)
	if dropped != before-1 {
		t.Fatalf("dropped %d layers, want %d", dropped, before-1)
	}
	if idx.NumLayers() != 1 {
		t.Fatalf("layers remaining: %d", idx.NumLayers())
	}
	// Removing an unused mapping is a no-op.
	if d := idx.RemoveOntologyMapping(ms[0].From, ms[0].To); d != 0 {
		t.Fatalf("second removal dropped %d", d)
	}
}

func TestEvalErrorsOnBadLayer(t *testing.T) {
	ds := smallDataset(107)
	idx := buildIndex(t, ds)
	ev := NewEvaluator(idx, bkws.New(3), EvalOptions{ForcedLayer: 99})
	if _, _, err := ev.Eval([]graph.Label{1}); err == nil {
		t.Fatal("expected layer-out-of-range error")
	}
}

// TestBuildDeterministic: identical inputs must produce identical indexes
// (layer sizes, configurations, χ maps) — the reproducibility contract the
// experiment harness relies on.
func TestBuildDeterministic(t *testing.T) {
	ds1 := smallDataset(900)
	ds2 := smallDataset(900)
	a := buildIndex(t, ds1)
	b := buildIndex(t, ds2)
	if a.NumLayers() != b.NumLayers() {
		t.Fatalf("layer counts differ: %d vs %d", a.NumLayers(), b.NumLayers())
	}
	for m := 1; m < a.NumLayers(); m++ {
		la, lb := a.Layer(m), b.Layer(m)
		if la.Graph.NumVertices() != lb.Graph.NumVertices() || la.Graph.NumEdges() != lb.Graph.NumEdges() {
			t.Fatalf("layer %d sizes differ", m)
		}
		ma, mb := la.Config.Mappings(), lb.Config.Mappings()
		if len(ma) != len(mb) {
			t.Fatalf("layer %d config sizes differ: %d vs %d", m, len(ma), len(mb))
		}
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("layer %d mapping %d differs: %v vs %v", m, i, ma[i], mb[i])
			}
		}
		for v := range la.Up {
			if la.Up[v] != lb.Up[v] {
				t.Fatalf("layer %d Up[%d] differs", m, v)
			}
		}
	}
}

// TestLayerMapsAreInverse: every layer's Up and Down must be exact inverses
// and Down must partition the lower layer's vertex set.
func TestLayerMapsAreInverse(t *testing.T) {
	ds := smallDataset(960)
	idx := buildIndex(t, ds)
	for m := 1; m < idx.NumLayers(); m++ {
		l := idx.Layer(m)
		lower := idx.LayerGraph(m - 1)
		if len(l.Up) != lower.NumVertices() {
			t.Fatalf("layer %d: Up covers %d of %d vertices", m, len(l.Up), lower.NumVertices())
		}
		seen := make(map[graph.V]bool)
		for s, members := range l.Down {
			if len(members) == 0 {
				t.Fatalf("layer %d: empty supernode %d", m, s)
			}
			for _, v := range members {
				if seen[v] {
					t.Fatalf("layer %d: vertex %d in two supernodes", m, v)
				}
				seen[v] = true
				if l.Up[v] != graph.V(s) {
					t.Fatalf("layer %d: Up/Down disagree at %d", m, v)
				}
			}
		}
		if len(seen) != lower.NumVertices() {
			t.Fatalf("layer %d: Down covers %d of %d", m, len(seen), lower.NumVertices())
		}
	}
}
