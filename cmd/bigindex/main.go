// Command bigindex is the command-line front end of the library:
//
//	bigindex gen   -preset yago-s -out graph.big          # generate a dataset
//	bigindex stats -in graph.big                          # graph statistics
//	bigindex build -preset yago-s                         # build + report index
//	bigindex query -preset yago-s -algo blinks -q t1,t2   # run a keyword query
//	bigindex bench -preset yago-s -algo blinks            # workload timing
//
// Presets are the synthetic stand-ins of the paper's datasets (yago-s,
// dbpedia-s, imdb-s, synt-10k … synt-80k); -in/-out use the binary graph
// format of internal/graph.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
	"bigindex/internal/search/bidir"
	"bigindex/internal/search/bkws"
	"bigindex/internal/search/blinks"
	"bigindex/internal/search/rclique"
	"bigindex/internal/snapshot"
	"bigindex/internal/text"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bigindex:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bigindex <gen|stats|build|query|bench> [flags]
  gen    -preset <name> -out <file>            generate a synthetic dataset
  stats  -in <file> | -preset <name>           print graph statistics
  build  -preset <name> [-layers N]            build a BiG-index and report layers
  query  -preset <name> -algo <a> -q k1,k2,... evaluate a keyword query
  bench  -preset <name> -algo <a>              time the Q1-Q8 workload
presets: demo yago-s dbpedia-s imdb-s synt-10k synt-20k synt-40k synt-80k
algos:   blinks (default), bkws, bidir, rclique`)
}

func loadPreset(name string) (*datagen.Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("missing -preset")
	}
	return datagen.Preset(name)
}

func newAlgo(name string, dmax int) (search.Algorithm, error) {
	switch name {
	case "blinks", "":
		return blinks.New(blinks.Options{DMax: dmax}), nil
	case "bkws":
		return bkws.New(dmax), nil
	case "bidir":
		return bidir.New(dmax), nil
	case "rclique":
		return rclique.New(dmax - 1), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	preset := fs.String("preset", "", "dataset preset")
	out := fs.String("out", "", "output file (binary graph format)")
	fs.Parse(args)
	ds, err := loadPreset(*preset)
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("missing -out")
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := ds.Graph.WriteTo(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: |V|=%d |E|=%d\n", *out, ds.Graph.NumVertices(), ds.Graph.NumEdges())
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	preset := fs.String("preset", "", "dataset preset")
	in := fs.String("in", "", "input file (binary graph format)")
	fs.Parse(args)

	var g *graph.Graph
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = graph.Read(f)
		if err != nil {
			return err
		}
	default:
		ds, err := loadPreset(*preset)
		if err != nil {
			return err
		}
		g = ds.Graph
	}
	st := graph.ComputeStats(g)
	fmt.Printf("|V| = %d\n|E| = %d\n|Σ| = %d\n", st.Vertices, st.Edges, st.DistinctLabels)
	fmt.Printf("avg out-degree %.2f, max out %d, max in %d\n", st.AvgDegree, st.MaxOutDegree, st.MaxInDegree)
	fmt.Printf("degree percentiles p50/p90/p99 = %d/%d/%d\n", st.DegreeP50, st.DegreeP90, st.DegreeP99)
	fmt.Printf("%d sinks, %d sources, %d weakly connected components\n", st.Sinks, st.Sources, st.WeaklyConnected)
	fmt.Printf("most frequent label covers %d vertices\n", st.TopLabelCount)
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	preset := fs.String("preset", "", "dataset preset")
	layers := fs.Int("layers", 7, "max summary layers")
	save := fs.String("save", "", "write the built index to this snapshot file")
	fs.Parse(args)
	ds, err := loadPreset(*preset)
	if err != nil {
		return err
	}
	opt := core.DefaultBuildOptions()
	opt.MaxLayers = *layers
	start := time.Now()
	idx, err := core.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		return err
	}
	if *save != "" {
		meta := snapshot.Meta{CreatedUnix: time.Now().Unix(), BuildNote: ds.Name}
		if err := snapshot.SaveFile(*save, idx, meta); err != nil {
			return err
		}
		fmt.Printf("index saved to %s\n", *save)
	}
	fmt.Printf("built BiG-index for %s in %v\n", ds.Name, time.Since(start).Round(time.Millisecond))
	for _, l := range idx.Stats().Layers {
		fmt.Printf("  layer %d: |V|=%-8d |E|=%-8d ratio=%.4f |C|=%d\n",
			l.Layer, l.Vertices, l.Edges, l.Ratio, l.ConfigSize)
	}
	fmt.Printf("index size (sum of summary layers): %d\n", idx.TotalSize())
	return nil
}

func resolveQuery(ds *datagen.Dataset, spec string) ([]graph.Label, error) {
	if spec == "" {
		return nil, fmt.Errorf("missing -q")
	}
	keywords := strings.Split(spec, ",")
	for i := range keywords {
		keywords[i] = strings.TrimSpace(keywords[i])
	}
	idx := text.NewIndex(ds.Graph.Dict(), ds.Graph)
	q, notes, err := idx.Resolve(keywords, ds.Graph)
	if err != nil {
		return nil, err
	}
	for _, n := range notes {
		fmt.Println("resolved", n)
	}
	return q, nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	preset := fs.String("preset", "", "dataset preset")
	algoName := fs.String("algo", "blinks", "search algorithm")
	qspec := fs.String("q", "", "comma-separated keywords")
	dmax := fs.Int("dmax", 4, "distance bound")
	k := fs.Int("k", 10, "top-k (0 = all)")
	direct := fs.Bool("direct", false, "bypass the index (baseline eval)")
	load := fs.String("load", "", "load a snapshot saved by build -save (same preset) instead of building")
	expand := fs.Bool("expand", false, "replace each concept keyword by its most frequent occurring subterm (concept-level search)")
	explain := fs.Bool("explain", false, "print the evaluation plan (per-layer costs) before answering")
	trace := fs.Bool("trace", false, "print the query's span tree (phase timings) as JSON after answering")
	fs.Parse(args)

	ds, err := loadPreset(*preset)
	if err != nil {
		return err
	}
	algo, err := newAlgo(*algoName, *dmax)
	if err != nil {
		return err
	}
	q, err := resolveQuery(ds, *qspec)
	if err != nil {
		return err
	}
	if *expand {
		// Concept-level search (the paper's future-work "similarity
		// search"): a keyword naming an ontology type stands for one of
		// its subterms that occurs in the graph; the query keeps the
		// subterm with the most vertices.
		for i, l := range q {
			terms := ds.Ont.SubtreeTerms(l, ds.Graph)
			if len(terms) == 1 {
				q[i] = terms[0]
			} else if len(terms) > 1 {
				fmt.Printf("keyword %q expands to %d occurring subterms; using the most frequent\n",
					ds.Graph.Dict().Name(l), len(terms))
				best := terms[0]
				for _, t := range terms {
					if ds.Graph.LabelCount(t) > ds.Graph.LabelCount(best) {
						best = t
					}
				}
				q[i] = best
			}
		}
	}

	var idx *core.Index
	if *load != "" {
		// The snapshot must be of this preset's graph: the keywords were
		// resolved through its dictionary.
		if idx, _, err = snapshot.LoadFileFor(*load, ds.Ont, ds.Graph.Digest()); err != nil {
			return err
		}
	} else if idx, err = core.Build(ds.Graph, ds.Ont, core.DefaultBuildOptions()); err != nil {
		return err
	}
	opt := core.DefaultEvalOptions()
	opt.K = *k
	ev := core.NewEvaluator(idx, algo, opt)

	if *explain {
		fmt.Print(ev.Explain(q).Render(ds.Graph.Dict()))
	}

	tr := obs.NewTrace("query")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	var ms []search.Match
	start := time.Now()
	if *direct {
		ms, err = ev.DirectCtx(ctx, q, *k)
	} else {
		var bd *core.Breakdown
		ms, bd, err = ev.EvalLayerCtx(ctx, q, -1)
		if bd != nil {
			defer fmt.Printf("evaluated at layer %d (search %v, specialize %v, generate %v)\n",
				bd.Layer, bd.Search, bd.Specialize, bd.Generate)
		}
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	tr.Root().End()
	if *trace {
		js, err := json.MarshalIndent(tr, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("trace: %s\n", js)
	}

	fmt.Printf("%d answers in %v\n", len(ms), elapsed.Round(time.Microsecond))
	for i, m := range ms {
		if i >= 10 {
			fmt.Printf("  … %d more\n", len(ms)-10)
			break
		}
		names := make([]string, len(m.Nodes))
		for j, n := range m.Nodes {
			names[j] = fmt.Sprintf("%s(#%d)", ds.Graph.Dict().Name(ds.Graph.Label(n)), n)
		}
		fmt.Printf("  #%d root=%s(#%d) score=%.0f nodes=%s\n",
			i+1, ds.Graph.Dict().Name(ds.Graph.Label(m.Root)), m.Root, m.Score, strings.Join(names, " "))
	}
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	preset := fs.String("preset", "", "dataset preset")
	algoName := fs.String("algo", "blinks", "search algorithm")
	dmax := fs.Int("dmax", 4, "distance bound")
	fs.Parse(args)

	ds, err := loadPreset(*preset)
	if err != nil {
		return err
	}
	algo, err := newAlgo(*algoName, *dmax)
	if err != nil {
		return err
	}
	idx, err := core.Build(ds.Graph, ds.Ont, core.DefaultBuildOptions())
	if err != nil {
		return err
	}
	opt := core.DefaultEvalOptions()
	if *algoName == "rclique" {
		opt.K = 10
		opt.GenLimit = 40
	}
	ev := core.NewEvaluator(idx, algo, opt)

	for _, q := range datagen.Queries(ds, datagen.DefaultWorkload()) {
		if _, err := ev.Direct(q.Keywords, opt.K); err != nil {
			return err
		}
		if _, _, err := ev.Eval(q.Keywords); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := ev.Direct(q.Keywords, opt.K); err != nil {
			return err
		}
		d := time.Since(t0)
		t0 = time.Now()
		_, bd, err := ev.Eval(q.Keywords)
		if err != nil {
			return err
		}
		b := time.Since(t0)
		fmt.Printf("%-3s direct=%-10v boosted=%-10v layer=%d reduction=%.1f%%\n",
			q.ID, d.Round(time.Microsecond), b.Round(time.Microsecond), bd.Layer,
			100*(1-float64(b)/float64(d)))
	}
	return nil
}
