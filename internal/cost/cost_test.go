package cost

import (
	"math"
	"testing"

	"bigindex/internal/generalize"
	"bigindex/internal/graph"
	"bigindex/internal/ontology"
	"bigindex/internal/sampling"
)

// fixture: groups of entities under two types, plus a supertype chain.
func fixture(t *testing.T) (*graph.Graph, *ontology.Ontology) {
	t.Helper()
	dict := graph.NewDict()
	ont := ontology.New(dict)
	person := ont.AddType("Person")
	org := ont.AddType("Org")
	thing := ont.AddType("Thing")
	if err := ont.AddSupertype(person, thing); err != nil {
		t.Fatal(err)
	}
	if err := ont.AddSupertype(org, thing); err != nil {
		t.Fatal(err)
	}

	b := graph.NewBuilder(dict)
	// 3 orgs with unique labels, each pointed at by 10 persons.
	for o := 0; o < 3; o++ {
		ov := b.AddVertex("org_" + string(rune('a'+o)))
		if err := ont.AddSupertypeNames("org_"+string(rune('a'+o)), "Org"); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 10; p++ {
			name := "person_" + string(rune('a'+o)) + string(rune('0'+p))
			pv := b.AddVertex(name)
			if err := ont.AddSupertypeNames(name, "Person"); err != nil {
				t.Fatal(err)
			}
			b.AddEdge(pv, ov)
		}
	}
	return b.Build(), ont
}

func TestGreedyConfigGeneralizesEverything(t *testing.T) {
	g, ont := fixture(t)
	opt := SearchOptions{Theta: 1, Alpha: 0.5, SampleRadius: 2, SampleCount: 60, Seed: 1}
	cfg, est := GreedyConfig(g, ont, opt)
	if est == nil {
		t.Fatal("estimator missing")
	}
	// With a permissive θ every entity label should generalize to its type
	// (the paper's default index setting).
	if cfg.Len() != 33 {
		t.Fatalf("config size = %d, want 33 (30 persons + 3 orgs)", cfg.Len())
	}
	if err := cfg.Validate(ont); err != nil {
		t.Fatalf("greedy produced invalid config: %v", err)
	}
}

func TestGreedyConfigRespectsPi(t *testing.T) {
	g, ont := fixture(t)
	opt := SearchOptions{Theta: 1, Pi: 5, Alpha: 0.5, SampleRadius: 2, SampleCount: 40, Seed: 1}
	cfg, _ := GreedyConfig(g, ont, opt)
	if cfg.Len() != 5 {
		t.Fatalf("config size = %d, want Π = 5", cfg.Len())
	}
}

func TestGreedyConfigRespectsTheta(t *testing.T) {
	g, ont := fixture(t)
	// θ = 0 rejects everything with positive cost; compress of any single
	// mapping stays positive, so the config must be empty.
	opt := SearchOptions{Theta: 0, Alpha: 0.5, SampleRadius: 2, SampleCount: 40, Seed: 1}
	cfg, _ := GreedyConfig(g, ont, opt)
	if cfg.Len() != 0 {
		t.Fatalf("config size = %d, want 0 under θ=0", cfg.Len())
	}
}

// Candidates of equal cost pop in push order, which is candidate order:
// a label with two direct supertypes absent from the graph scores the
// same either way, and the first DirectSupertypes entry must win.
func TestGreedyConfigTieBreaksInCandidateOrder(t *testing.T) {
	dict := graph.NewDict()
	ont := ontology.New(dict)
	a := ont.AddType("A")
	b := ont.AddType("B")
	gb := graph.NewBuilder(dict)
	e := dict.Intern("e")
	for i := 0; i < 4; i++ {
		gb.AddVertexLabel(e)
	}
	gb.AddEdge(0, 1)
	gb.AddEdge(2, 3)
	g := gb.Build()
	for _, super := range []graph.Label{b, a} {
		if err := ont.AddSupertype(e, super); err != nil {
			t.Fatal(err)
		}
	}
	supers := ont.DirectSupertypes(e)
	if len(supers) != 2 {
		t.Fatalf("fixture: %d direct supertypes, want 2", len(supers))
	}

	opt := SearchOptions{Theta: 100, Alpha: 0.5, SampleRadius: 2, SampleCount: 10, Seed: 1}
	cfg, est := GreedyConfig(g, ont, opt)
	c0, _ := est.StartIncremental(generalize.NewConfigBuilder(g)).CompressWith(generalize.Mapping{From: e, To: supers[0]})
	c1, _ := est.StartIncremental(generalize.NewConfigBuilder(g)).CompressWith(generalize.Mapping{From: e, To: supers[1]})
	if c0 != c1 {
		t.Fatalf("fixture: singleton costs differ (%v vs %v); the tie is the point", c0, c1)
	}
	if cfg.Len() != 1 || cfg.Map(e) != supers[0] {
		t.Fatalf("config %v, want the one mapping %v -> %v", cfg.Mappings(), e, supers[0])
	}
}

func TestModelCost(t *testing.T) {
	g, _ := fixture(t)
	est := sampling.NewEstimator(g, 2, 50, 1)
	m := &Model{Alpha: 0.5, Estimator: est}
	empty := generalize.EmptyConfig()
	c := m.Cost(g, empty)
	// Identity config: compress = 1 (nothing collapses; labels unique),
	// distortion 0 -> cost = α.
	if math.Abs(c-0.5) > 0.05 {
		t.Fatalf("identity cost = %v, want ≈ α = 0.5", c)
	}
	// α extremes.
	m0 := &Model{Alpha: 0, Estimator: est}
	if m0.Cost(g, empty) != 0 {
		t.Fatal("α=0 identity cost should be 0")
	}
}

// layered fakes a two-layer index for query-cost tests.
type layered struct {
	graphs []*graph.Graph
	seq    generalize.Sequence
}

func (l *layered) NumLayers() int                { return len(l.graphs) }
func (l *layered) LayerGraph(m int) *graph.Graph { return l.graphs[m] }
func (l *layered) Configs() generalize.Sequence  { return l.seq }

func TestQueryCostAndOptimalLayer(t *testing.T) {
	dict := graph.NewDict()
	b0 := graph.NewBuilder(dict)
	pa := b0.AddVertex("pa")
	pb := b0.AddVertex("pb")
	o := b0.AddVertex("org")
	b0.AddEdge(pa, o)
	b0.AddEdge(pb, o)
	g0 := b0.Build()

	person := dict.Intern("Person")
	cfg := generalize.MustConfig([]generalize.Mapping{
		{From: g0.Label(pa), To: person},
		{From: g0.Label(pb), To: person},
	})
	// Summary at layer 1: Person -> org (2 vertices, 1 edge).
	b1 := graph.NewBuilder(dict)
	p1 := b1.AddVertexLabel(person)
	o1 := b1.AddVertexLabel(g0.Label(o))
	b1.AddEdge(p1, o1)
	g1 := b1.Build()

	idx := &layered{graphs: []*graph.Graph{g0, g1}, seq: generalize.Sequence{cfg}}

	// Query {pa, org}: legal at both layers (pa->Person, org->org distinct).
	q := []graph.Label{g0.Label(pa), g0.Label(o)}
	best, costs := OptimalLayerEx(idx, q, 0.5, 0)
	if len(costs) != 2 {
		t.Fatalf("costs = %v", costs)
	}
	// Layer 0 cost = β·1 + (1-β)·1 = 1.
	if math.Abs(costs[0]-1) > 1e-9 {
		t.Fatalf("cost_q(0) = %v, want 1", costs[0])
	}
	// Layer 1: compress = 3/5; support ratio = (1/2 + 1/2)/(1/3 + 1/3).
	wantC1 := 0.5*(3.0/5.0) + 0.5*((0.5+0.5)/(1.0/3.0+1.0/3.0))
	if math.Abs(costs[1]-wantC1) > 1e-9 {
		t.Fatalf("cost_q(1) = %v, want %v", costs[1], wantC1)
	}
	wantBest := 0
	if wantC1 < 1 {
		wantBest = 1
	}
	if best != wantBest {
		t.Fatalf("best layer = %d, want %d", best, wantBest)
	}

	// Query {pa, pb} merges into {Person} at layer 1: Condition 1 of
	// Def 4.1 forces layer 0.
	qMerge := []graph.Label{g0.Label(pa), g0.Label(pb)}
	best2, _ := OptimalLayerEx(idx, qMerge, 0.1, 0)
	if best2 != 0 {
		t.Fatalf("merged query must evaluate at layer 0, got %d", best2)
	}
}

func TestQueryCostBetaExtremes(t *testing.T) {
	dict := graph.NewDict()
	b := graph.NewBuilder(dict)
	v := b.AddVertex("x")
	g := b.Build()
	tab := NewTable(&layered{graphs: []*graph.Graph{g}}, []graph.Label{g.Label(v)}, 0)
	// β = 1: pure compression ratio; same graph -> 1.
	if c := tab.Cost(0, 1); c != 1 {
		t.Fatalf("β=1 same-layer cost = %v", c)
	}
	// β = 0: pure support ratio; same query -> 1.
	if c := tab.Cost(0, 0); c != 1 {
		t.Fatalf("β=0 same-layer cost = %v", c)
	}
}
