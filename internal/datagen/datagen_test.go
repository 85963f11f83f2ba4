package datagen

import (
	"testing"

	"bigindex/internal/graph"
)

func TestGenerateDeterministic(t *testing.T) {
	opt := Options{Name: "d", Entities: 500, Seed: 5}
	a := Generate(opt)
	b := Generate(opt)
	if a.Graph.NumVertices() != b.Graph.NumVertices() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
	c := Generate(Options{Name: "d", Entities: 500, Seed: 6})
	if c.Graph.NumEdges() == a.Graph.NumEdges() {
		// Edge counts may coincide; check actual edges.
		same := true
		ec := c.Graph.Edges()
		for i := range ea {
			if ea[i] != ec[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestGenerateShape(t *testing.T) {
	ds := Generate(Options{Name: "s", Entities: 2000, AvgOut: 2.5, Seed: 9})
	g := ds.Graph
	if g.NumVertices() != 2000 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	ratio := float64(g.NumEdges()) / float64(g.NumVertices())
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("edge ratio = %v, want ≈ 2.5", ratio)
	}
	if err := ds.Ont.Validate(); err != nil {
		t.Fatalf("generated ontology invalid: %v", err)
	}
	// Every vertex label must have a leaf type in the ontology.
	for _, l := range g.DistinctLabels() {
		lt, ok := ds.LeafTypeOf[l]
		if !ok {
			t.Fatalf("label %v has no leaf type", l)
		}
		if !ds.Ont.IsSupertype(lt, l) {
			t.Fatalf("leaf type of %v not a supertype", l)
		}
	}
	// The taxonomy must be several levels deep so multi-layer indexes make
	// sense.
	if h := ds.Ont.Height(); h < 3 {
		t.Fatalf("ontology height = %d, want >= 3", h)
	}
}

func TestZipfSkew(t *testing.T) {
	ds := Generate(Options{Name: "z", Entities: 5000, Terms: 500, TermSkew: 1.5, Seed: 3})
	counts := make([]int, 0, 500)
	maxC := 0
	for _, l := range ds.Graph.DistinctLabels() {
		c := ds.Graph.LabelCount(l)
		counts = append(counts, c)
		if c > maxC {
			maxC = c
		}
	}
	// Zipf: the most popular term should dominate (far above the mean).
	mean := 5000 / len(counts)
	if maxC < 5*mean {
		t.Fatalf("max count %d vs mean %d: no skew", maxC, mean)
	}
}

func TestPresetsDistinct(t *testing.T) {
	y, d, i := YagoSmall(), DbpediaSmall(), ImdbSmall()
	if y.Name != "yago-s" || d.Name != "dbpedia-s" || i.Name != "imdb-s" {
		t.Fatal("preset names wrong")
	}
	ry := float64(y.Graph.NumEdges()) / float64(y.Graph.NumVertices())
	rd := float64(d.Graph.NumEdges()) / float64(d.Graph.NumVertices())
	ri := float64(i.Graph.NumEdges()) / float64(i.Graph.NumVertices())
	if !(ry < rd && rd < ri) {
		t.Fatalf("density order wrong: yago %v dbpedia %v imdb %v", ry, rd, ri)
	}
}

// Every preset name builds the dataset of that name; an unknown name is
// an error, not a default.
func TestPreset(t *testing.T) {
	for _, name := range []string{"demo", "yago-s", "dbpedia-s", "imdb-s", "synt-10k", "synt-20k", "synt-40k", "synt-80k"} {
		ds, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if ds.Name != name || ds.Graph.NumVertices() == 0 {
			t.Fatalf("Preset(%q) built %q with %d vertices", name, ds.Name, ds.Graph.NumVertices())
		}
	}
	for _, name := range []string{"", "nope", "synt-5k"} {
		if _, err := Preset(name); err == nil {
			t.Errorf("Preset(%q) accepted an unknown name", name)
		}
	}
}

func TestSyntheticSeries(t *testing.T) {
	series := SyntheticSeries()
	if len(series) != 4 {
		t.Fatalf("series length %d", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].Graph.NumVertices() != 2*series[i-1].Graph.NumVertices() {
			t.Fatal("series should double vertices")
		}
	}
	if series[0].Name != "synt-10k" {
		t.Fatalf("name = %s", series[0].Name)
	}
}

func TestQueriesWorkload(t *testing.T) {
	ds := Generate(Options{Name: "q", Entities: 3000, Terms: 200, Seed: 11})
	qs := Queries(ds, DefaultWorkload())
	if len(qs) == 0 {
		t.Fatal("no queries generated")
	}
	sizes := DefaultWorkload().Sizes
	for i, q := range qs {
		if len(q.Keywords) != sizes[i] {
			t.Fatalf("%s has %d keywords, want %d", q.ID, len(q.Keywords), sizes[i])
		}
		for j, l := range q.Keywords {
			if got := ds.Graph.LabelCount(l); got != q.Counts[j] {
				t.Fatalf("%s count[%d] = %d, graph says %d", q.ID, j, q.Counts[j], got)
			}
			if q.Counts[j] < DefaultWorkload().MinCount {
				t.Fatalf("%s keyword %d below MinCount: %d", q.ID, j, q.Counts[j])
			}
		}
		// No duplicate keywords within a query.
		seen := map[graph.Label]bool{}
		for _, l := range q.Keywords {
			if seen[l] {
				t.Fatalf("%s repeats keyword %v", q.ID, l)
			}
			seen[l] = true
		}
		if len(q.Names(ds.Graph.Dict())) != len(q.Keywords) {
			t.Fatal("Names length mismatch")
		}
	}
	// Deterministic.
	qs2 := Queries(ds, DefaultWorkload())
	for i := range qs {
		for j := range qs[i].Keywords {
			if qs[i].Keywords[j] != qs2[i].Keywords[j] {
				t.Fatal("workload not deterministic")
			}
		}
	}
}
