package datagen

import "fmt"

// Presets mirror Table 2 of the paper at laptop scale (roughly 1:130 for
// the real datasets). What matters for the experiments is the *shape*:
// DBpedia-like graphs are denser and compress worse (the paper's layer-1
// ratio is 0.61 vs YAGO3's 0.28); the IMDB-like graph is the densest and
// breaks r-clique's neighbor index; the synt-* series scales |V| with a
// fixed 2-3x edge ratio and a much smaller ontology (5K types in the
// paper).

// Preset returns the named dataset: demo, yago-s, dbpedia-s, imdb-s, or
// one of synt-10k…synt-80k. It is the one name→dataset table; the CLI, the
// daemon and the experiment harness all resolve -preset names through it.
func Preset(name string) (*Dataset, error) {
	switch name {
	case "demo":
		// A small preset for smoke tests and quick exploration.
		return Generate(Options{
			Name: "demo", Entities: 1500, Terms: 120, LeafTypes: 8, Seed: 4242,
		}), nil
	case "yago-s":
		return YagoSmall(), nil
	case "dbpedia-s":
		return DbpediaSmall(), nil
	case "imdb-s":
		return ImdbSmall(), nil
	case "synt-10k":
		return Synthetic(10000, 8101), nil
	case "synt-20k":
		return Synthetic(20000, 8102), nil
	case "synt-40k":
		return Synthetic(40000, 8103), nil
	case "synt-80k":
		return Synthetic(80000, 8104), nil
	default:
		return nil, fmt.Errorf("datagen: unknown preset %q", name)
	}
}

// YagoSmall is the YAGO3 stand-in: sparse (|E|/|V| ≈ 2), deep taxonomy,
// strongly skewed vocabulary, so one generalization round compresses hard.
func YagoSmall() *Dataset {
	return Generate(Options{
		Name:          "yago-s",
		Entities:      20000,
		AvgOut:        2.0,
		Terms:         1500,
		LeafTypes:     40,
		TypeBranching: 4,
		TypeHeight:    6,
		Relations:     60,
		TermSkew:      1.5,
		TargetSkew:    2,
		SinkFraction:  0.35,
		Seed:          7001,
	})
}

// DbpediaSmall is the DBpedia stand-in: denser (|E|/|V| ≈ 2.7) with a
// flatter vocabulary, so summaries compress less (paper ratio 0.61).
func DbpediaSmall() *Dataset {
	return Generate(Options{
		Name:          "dbpedia-s",
		Entities:      44000,
		AvgOut:        2.7,
		Terms:         5000,
		LeafTypes:     120,
		TypeBranching: 4,
		TypeHeight:    6,
		Relations:     260,
		SubtypeLevels: 1,
		TermSkew:      1.15,
		TargetSkew:    1.8,
		SinkFraction:  0.5,
		Seed:          7002,
	})
}

// ImdbSmall is the IMDB stand-in: densest (|E|/|V| ≈ 3.6) with hub
// entities (popular movies/actors); its R-hop neighborhoods are huge, which
// is exactly what defeats r-clique's O(n·m) neighbor index in Exp-1.
func ImdbSmall() *Dataset {
	return Generate(Options{
		Name:          "imdb-s",
		Entities:      13000,
		AvgOut:        3.6,
		Terms:         900,
		LeafTypes:     24,
		TypeBranching: 4,
		TypeHeight:    6,
		Relations:     48,
		TermSkew:      1.4,
		TargetSkew:    6,
		SinkFraction:  0.65,
		Seed:          7003,
	})
}

// Synthetic returns a synt-N dataset (the synt-1M…synt-8M series scaled
// 100x down): n vertices, ~3n edges for the smaller sizes and ~2n for the
// larger, over a small ontology (the paper's synthetic ontologies have 5K
// types, height 7, average degree 5).
func Synthetic(n int, seed int64) *Dataset {
	avg := 3.0
	if n >= 40000 {
		avg = 2.0
	}
	return Generate(Options{
		Name:          syntheticName(n),
		Entities:      n,
		AvgOut:        avg,
		Terms:         500,
		LeafTypes:     40,
		TypeBranching: 3,
		TypeHeight:    7,
		SubtypeLevels: 1,
		Relations:     100,
		TermSkew:      1.3,
		TargetSkew:    2,
		SinkFraction:  0.35,
		Seed:          seed,
	})
}

func syntheticName(n int) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return "synt-" + itoa(n/1000) + "k"
	default:
		return "synt-" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// SyntheticSeries returns the synt-10k…synt-80k scaling series of Exp-2.
func SyntheticSeries() []*Dataset {
	return []*Dataset{
		Synthetic(10000, 8101),
		Synthetic(20000, 8102),
		Synthetic(40000, 8103),
		Synthetic(80000, 8104),
	}
}
