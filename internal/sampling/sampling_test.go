package sampling

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bigindex/internal/datagen"
	"bigindex/internal/generalize"
	"bigindex/internal/graph"
)

func TestSampleSize(t *testing.T) {
	// The paper's example: z = 1.96, E = 5% -> n ≈ 400 (0.25·(39.2)² = 384.16).
	n := SampleSize(1.96, 0.05)
	if n < 380 || n > 400 {
		t.Fatalf("SampleSize(1.96, 0.05) = %d, want ≈ 385", n)
	}
	if SampleSize(1.96, 0.1) >= n {
		t.Fatal("looser error bound should need fewer samples")
	}
}

// starGraph: one hub of label Hub with nLeaves leaves of distinct labels
// leaf_i; a config mapping all leaves to one type makes them bisimilar.
func starGraph(nLeaves int) (*graph.Graph, *generalize.Config) {
	b := graph.NewBuilder(nil)
	hub := b.AddVertex("Hub")
	leafType := b.Dict().Intern("Leaf")
	for i := 0; i < nLeaves; i++ {
		l := b.AddVertex("leaf_" + string(rune('A'+i%26)) + string(rune('0'+i/26)))
		b.AddEdge(hub, l)
	}
	g := b.Build()
	var ms []generalize.Mapping
	for _, l := range g.DistinctLabels() {
		name := g.Dict().Name(l)
		if name != "Hub" && name != "Leaf" {
			ms = append(ms, generalize.Mapping{From: l, To: leafType})
		}
	}
	return g, generalize.MustConfig(ms)
}

func TestExactCompress(t *testing.T) {
	g, cfg := starGraph(20)
	// Without generalization every label is unique: no compression.
	if r := ExactCompress(g, generalize.EmptyConfig()); r != 1 {
		t.Fatalf("identity compress = %v, want 1", r)
	}
	// With generalization the 20 leaves collapse to 1 supernode:
	// summary = 2 vertices + 1 edge = 3; original = 21 + 20 = 41.
	r := ExactCompress(g, cfg)
	want := 3.0 / 41.0
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("compress = %v, want %v", r, want)
	}
}

func TestEstimatorTracksExact(t *testing.T) {
	g, cfg := starGraph(30)
	est := NewEstimator(g, 2, 200, 1)
	if est.NumSamples() != 200 || est.Radius() != 2 {
		t.Fatalf("estimator shape: %d samples radius %d", est.NumSamples(), est.Radius())
	}
	got := est.EstimateCompress(cfg)
	exact := ExactCompress(g, cfg)
	// Star samples rooted at leaves are single vertices (ratio 1); rooted
	// at the hub they compress hard. The estimate must at least strictly
	// separate the generalizing config from the identity.
	ident := est.EstimateCompress(generalize.EmptyConfig())
	if got >= ident {
		t.Fatalf("estimate %v should beat identity %v (exact %v)", got, ident, exact)
	}
}

func TestEstimatePrefixStabilizes(t *testing.T) {
	g, cfg := starGraph(25)
	est := NewEstimator(g, 2, 400, 2)
	full := est.EstimateCompress(cfg)
	if p := est.EstimateCompressPrefix(cfg, 400); p != full {
		t.Fatal("full prefix must equal EstimateCompress")
	}
	p100 := est.EstimateCompressPrefix(cfg, 100)
	if math.Abs(p100-full) > 0.25 {
		t.Fatalf("prefix estimate too unstable: %v vs %v", p100, full)
	}
	if est.EstimateCompressPrefix(cfg, 0) != 1 {
		t.Fatal("zero samples should estimate 1")
	}
	if est.EstimateCompressPrefix(cfg, 9999) != full {
		t.Fatal("overlong prefix should clamp")
	}
}

func TestEmptyGraphEstimator(t *testing.T) {
	g := graph.NewBuilder(nil).Build()
	est := NewEstimator(g, 2, 10, 3)
	if est.NumSamples() != 0 {
		t.Fatal("no samples from empty graph")
	}
	if est.EstimateCompress(generalize.EmptyConfig()) != 1 {
		t.Fatal("empty estimate should be 1")
	}
}

func TestSpearman(t *testing.T) {
	// Perfect monotone agreement.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if r := Spearman(a, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", r)
	}
	// Perfect inversion.
	c := []float64{50, 40, 30, 20, 10}
	if r := Spearman(a, c); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", r)
	}
	// Ties: average ranks keep the coefficient in [-1, 1].
	d := []float64{1, 1, 2, 2, 3}
	if r := Spearman(a, d); r < 0.8 || r > 1 {
		t.Fatalf("tied monotone correlation = %v", r)
	}
	// Degenerate inputs.
	if r := Spearman([]float64{1}, []float64{2}); r != 0 {
		t.Fatalf("short input = %v", r)
	}
	if r := Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("constant input = %v", r)
	}
	// Random noise correlates weakly.
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 500)
	y := make([]float64, 500)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	if r := Spearman(x, y); math.Abs(r) > 0.15 {
		t.Fatalf("random correlation = %v", r)
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty stats should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Fatalf("std = %v", s)
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	g, cfg := starGraph(15)
	est := NewEstimator(g, 2, 100, 5)

	builder := generalize.NewConfigBuilder(g)
	inc := est.StartIncremental(builder)
	if math.Abs(inc.Compress()-est.EstimateCompress(generalize.EmptyConfig())) > 1e-12 {
		t.Fatal("initial incremental compress must equal identity estimate")
	}
	for _, m := range cfg.Mappings() {
		c, touched := inc.CompressWith(m)
		// Build the equivalent immutable config to cross-check.
		snap := builder.Snapshot()
		ext, err := snap.Extend(m)
		if err != nil {
			t.Fatal(err)
		}
		want := est.EstimateCompress(ext)
		if math.Abs(c-want) > 1e-9 {
			t.Fatalf("CompressWith(%v) = %v, batch = %v", m, c, want)
		}
		if err := builder.Add(m); err != nil {
			t.Fatal(err)
		}
		inc.Accept(m, touched)
		if math.Abs(inc.Compress()-want) > 1e-9 {
			t.Fatalf("after Accept: %v, want %v", inc.Compress(), want)
		}
	}
}

// TestCompressWithConcurrent scores every one-step generalization of a
// small knowledge graph from several goroutines sharing one session, as
// Algo 1 does, and requires the sequential results bit for bit.
func TestCompressWithConcurrent(t *testing.T) {
	ds := datagen.Generate(datagen.Options{
		Name: "test", Entities: 400, AvgOut: 2, Terms: 60, LeafTypes: 8,
		TypeBranching: 3, TypeHeight: 3, Relations: 16, Seed: 3,
	})
	g := ds.Graph
	est := NewEstimator(g, 2, 60, 4)
	inc := est.StartIncremental(generalize.NewConfigBuilder(g))
	var ms []generalize.Mapping
	for _, l := range g.DistinctLabels() {
		for _, super := range ds.Ont.DirectSupertypes(l) {
			ms = append(ms, generalize.Mapping{From: l, To: super})
		}
	}
	if len(ms) < 20 {
		t.Fatalf("only %d candidate mappings", len(ms))
	}
	want := make([]float64, len(ms))
	for i, m := range ms {
		want[i], _ = inc.CompressWith(m)
	}
	got := make([]float64, len(ms))
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ms); i += 4 {
				got[i], _ = inc.CompressWith(ms[i])
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(got, want) {
		t.Fatalf("concurrent scores %v, sequential %v", got, want)
	}
}
