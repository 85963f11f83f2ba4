// Package core implements the BiG-index itself (Def. 3.1): the hierarchy of
// generalized-and-summarized graphs G⁰…Gʰ produced by alternating Gen (label
// generalization against the ontology) and Bisim (bisimulation
// summarization), together with hierarchical query evaluation (Algo 2),
// answer specialization with candidate filtering (Prop 4.1), and answer
// generation (Algos 3/4 via the search plug-ins).
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync/atomic"
	"time"

	"bigindex/internal/bisim"
	"bigindex/internal/cost"
	"bigindex/internal/generalize"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/ontology"
)

// Layer is one level of the hierarchy. Layer 0 is the data graph and has no
// configuration or vertex maps; layer i (i >= 1) stores
// Gⁱ = Bisim(Gen(Gⁱ⁻¹, Cⁱ)) plus the up/down vertex maps between layer i−1
// and layer i.
type Layer struct {
	// Graph is Gⁱ.
	Graph *graph.Graph
	// Config is Cⁱ, the label-preserving configuration generalizing layer
	// i−1's labels (nil at layer 0).
	Config *generalize.Config
	// Up maps each vertex of layer i−1 to its supernode here: the χ step.
	Up []graph.V
	// Down maps each supernode to its members in layer i−1: Bisim⁻¹,
	// the hash-table reverse mapping of Sec. 2.
	Down [][]graph.V
}

// Index is a built BiG-index (𝔾, 𝒞).
type Index struct {
	ont    *ontology.Ontology
	layers []*Layer
	seq    generalize.Sequence
	// epoch counts structural updates (Refresh, ontology-mapping
	// removal). Result caches embed it in their keys, so invalidation
	// after a data-graph update is implicit: entries computed against a
	// previous version can never match a post-update lookup.
	epoch atomic.Uint64
}

// BuildOptions controls index construction.
type BuildOptions struct {
	// MaxLayers caps the number of summary layers h (the experiments build
	// up to 7). 0 means no cap: build until generalization is exhausted or
	// compression stalls.
	MaxLayers int
	// Search configures the per-layer greedy configuration search (Algo 1).
	Search cost.SearchOptions
	// MinGain stops construction when a new layer shrinks the previous one
	// by less than this fraction (the "compression potential diminishes"
	// termination of Sec. 3.1). Default 0.02.
	MinGain float64
	// Obs, when set, receives build gauges under bigindex_build_*:
	// per-layer config-search / Gen / Bisim wall times, layer sizes,
	// config rule counts, and sampling effort. Nil records nothing.
	Obs *obs.Registry
	// Logger, when set, receives one structured line per built layer and
	// a build summary. Nil logs nothing.
	Logger *slog.Logger
}

// DefaultBuildOptions mirrors the paper's default indexes (Sec. 6.1.2):
// permissive θ and Π so each layer applies one full generalization round,
// seven layers.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		MaxLayers: 7,
		Search:    cost.DefaultSearchOptions(),
		MinGain:   0.02,
	}
}

// ErrNoOntology is returned by Build when ont is nil.
var ErrNoOntology = errors.New("core: ontology is required to build a BiG-index")

// Build constructs the BiG-index of g against ont: repeatedly pick a
// configuration with Algo 1, generalize, summarize with bisimulation, and
// stack the result, stopping at MaxLayers, when no label can be generalized
// further, or when compression stalls (MinGain).
func Build(g *graph.Graph, ont *ontology.Ontology, opt BuildOptions) (*Index, error) {
	if ont == nil {
		return nil, ErrNoOntology
	}
	if opt.MinGain <= 0 {
		opt.MinGain = 0.02
	}
	idx := &Index{
		ont:    ont,
		layers: []*Layer{{Graph: g}},
	}

	// Build gauges (all no-ops when opt.Obs is nil): the per-layer Gen /
	// Bisim / config-search wall times are the construction-cost axes the
	// bisimulation-efficiency literature measures per iteration.
	phaseSec := opt.Obs.GaugeVec("bigindex_build_phase_seconds",
		"Per-layer build phase wall time in seconds.", "layer", "phase")
	layerVerts := opt.Obs.GaugeVec("bigindex_build_layer_vertices",
		"Vertices per built summary layer.", "layer")
	layerEdges := opt.Obs.GaugeVec("bigindex_build_layer_edges",
		"Edges per built summary layer.", "layer")
	cfgRules := opt.Obs.GaugeVec("bigindex_build_config_rules",
		"Generalization rules chosen by the layer's config search (Algo 1).", "layer")
	cfgSamples := opt.Obs.GaugeVec("bigindex_build_config_samples",
		"Sample subgraphs drawn by the layer's config search.", "layer")
	layersG := opt.Obs.Gauge("bigindex_build_layers",
		"Summary layers in the built index (h).")
	buildSec := opt.Obs.Gauge("bigindex_build_seconds",
		"Total index construction wall time in seconds.")

	buildStart := time.Now()
	top := g
	for layer := 1; opt.MaxLayers == 0 || layer <= opt.MaxLayers; layer++ {
		ls := strconv.Itoa(layer)
		searchOpt := opt.Search
		searchOpt.Seed += int64(layer) // fresh samples per layer, still deterministic
		t0 := time.Now()
		cfg, est := cost.GreedyConfig(top, ont, searchOpt)
		configDur := time.Since(t0)
		phaseSec.With(ls, "config").Set(configDur.Seconds())
		cfgRules.With(ls).Set(float64(cfg.Len()))
		if est != nil {
			cfgSamples.With(ls).Set(float64(est.NumSamples()))
		}
		if cfg.Len() == 0 {
			break // nothing left to generalize
		}
		if err := cfg.Validate(ont); err != nil {
			return nil, fmt.Errorf("core: layer %d configuration invalid: %w", layer, err)
		}
		t0 = time.Now()
		gen := cfg.Apply(top)
		genDur := time.Since(t0)
		phaseSec.With(ls, "gen").Set(genDur.Seconds())
		t0 = time.Now()
		res := bisim.Compute(gen)
		bisimDur := time.Since(t0)
		phaseSec.With(ls, "bisim").Set(bisimDur.Seconds())
		ratio := float64(res.Summary.Size()) / float64(max(1, top.Size()))
		if ratio > 1-opt.MinGain && layer > 1 {
			break // compression potential exhausted (Sec. 3.1 termination)
		}
		idx.layers = append(idx.layers, &Layer{
			Graph:  res.Summary,
			Config: cfg,
			Up:     res.Block,
			Down:   res.Members,
		})
		idx.seq = append(idx.seq, cfg)
		layerVerts.With(ls).Set(float64(res.Summary.NumVertices()))
		layerEdges.With(ls).Set(float64(res.Summary.NumEdges()))
		if opt.Logger != nil {
			opt.Logger.Info("layer built",
				"layer", layer,
				"vertices", res.Summary.NumVertices(),
				"edges", res.Summary.NumEdges(),
				"ratio", ratio,
				"config_rules", cfg.Len(),
				"config_ms", configDur.Milliseconds(),
				"gen_ms", genDur.Milliseconds(),
				"bisim_ms", bisimDur.Milliseconds())
		}
		top = res.Summary
	}
	layersG.Set(float64(len(idx.layers) - 1))
	buildSec.Set(time.Since(buildStart).Seconds())
	if opt.Logger != nil {
		opt.Logger.Info("index built",
			"layers", len(idx.layers)-1,
			"index_size", idx.TotalSize(),
			"elapsed_ms", time.Since(buildStart).Milliseconds())
	}
	return idx, nil
}

// NewFromLayers assembles an Index from explicitly provided layers — the
// constructor behind snapshot restore (internal/snapshot), where the
// layers were decoded from disk rather than built. Structural invariants
// are enforced so a decoder bug or a tampered file can never produce a
// silently wrong index:
//
//   - layer 0 is the data graph: no config, no vertex maps;
//   - every layer i >= 1 carries a config, an Up map covering exactly the
//     vertices of layer i-1, and a Down table that is Up's exact inverse
//     (every supernode has at least one member and every membership
//     round-trips);
//   - every layer shares layer 0's dictionary.
//
// When ont is non-nil each configuration is validated against it, as
// Build would have. The index starts at epoch 0; use RestoreEpoch to
// carry a persisted epoch forward.
func NewFromLayers(ont *ontology.Ontology, layers []*Layer) (*Index, error) {
	if len(layers) == 0 || layers[0] == nil || layers[0].Graph == nil {
		return nil, fmt.Errorf("core: NewFromLayers requires a data-graph layer")
	}
	if layers[0].Config != nil || layers[0].Up != nil || layers[0].Down != nil {
		return nil, fmt.Errorf("core: layer 0 must not carry a config or vertex maps")
	}
	idx := &Index{ont: ont, layers: layers}
	dict := layers[0].Graph.Dict()
	for i, l := range layers[1:] {
		li := i + 1
		if l == nil || l.Graph == nil || l.Config == nil {
			return nil, fmt.Errorf("core: layer %d is incomplete", li)
		}
		if l.Graph.Dict() != dict {
			return nil, fmt.Errorf("core: layer %d does not share the data graph dictionary", li)
		}
		if ont != nil {
			if err := l.Config.Validate(ont); err != nil {
				return nil, fmt.Errorf("core: layer %d config incompatible with ontology: %w", li, err)
			}
		}
		below, here := layers[li-1].Graph.NumVertices(), l.Graph.NumVertices()
		if len(l.Up) != below {
			return nil, fmt.Errorf("core: layer %d Up covers %d vertices, layer %d has %d", li, len(l.Up), li-1, below)
		}
		if len(l.Down) != here {
			return nil, fmt.Errorf("core: layer %d Down covers %d supernodes, layer has %d", li, len(l.Down), here)
		}
		members := 0
		seen := make([]bool, below)
		for s, row := range l.Down {
			if len(row) == 0 {
				return nil, fmt.Errorf("core: layer %d supernode %d has no members", li, s)
			}
			for _, v := range row {
				if int(v) >= below || int(l.Up[v]) != s || seen[v] {
					return nil, fmt.Errorf("core: layer %d Up/Down maps are not mutually inverse at supernode %d", li, s)
				}
				seen[v] = true
			}
			members += len(row)
		}
		if members != below {
			// Every Down entry round-tripped through Up exactly once, so a
			// count match means the rows partition layer i-1 exactly.
			return nil, fmt.Errorf("core: layer %d Down covers %d members, want %d", li, members, below)
		}
		idx.seq = append(idx.seq, l.Config)
	}
	return idx, nil
}

// NumLayers reports h+1 (data graph + summary layers). Implements
// cost.LayerGraphs.
func (x *Index) NumLayers() int { return len(x.layers) }

// LayerGraph returns Gᵐ. Implements cost.LayerGraphs.
func (x *Index) LayerGraph(m int) *graph.Graph { return x.layers[m].Graph }

// Configs returns [C¹, …, Cʰ]. Implements cost.LayerGraphs.
func (x *Index) Configs() generalize.Sequence { return x.seq }

// Ontology returns the ontology the index was built against.
func (x *Index) Ontology() *ontology.Ontology { return x.ont }

// Epoch identifies the version of the data the index currently serves:
// 0 at build/load time, incremented by every Refresh and by
// RemoveOntologyMapping when it drops layers. Query result caches key
// on it (internal/qcache), which makes their invalidation after an
// update implicit and sound — a stale entry's key can never equal a
// fresh query's key.
func (x *Index) Epoch() uint64 { return x.epoch.Load() }

// RestoreEpoch overwrites the epoch counter. It exists solely so snapshot
// restore can carry the persisted epoch across a process restart (keeping
// /stats monotonic and staleness accounting honest); never call it on an
// index that is serving traffic — epoch-keyed caches rely on the counter
// only ever increasing.
func (x *Index) RestoreEpoch(e uint64) { x.epoch.Store(e) }

// Layer returns layer m (read-only by convention).
func (x *Index) Layer(m int) *Layer { return x.layers[m] }

// Data returns G⁰.
func (x *Index) Data() *graph.Graph { return x.layers[0].Graph }

// ChiUp lifts a vertex of layer `from` to its supernode at layer `to`
// (from <= to): the composed map χᵗᵒ∘…∘χᶠʳᵒᵐ⁺¹ — the paper's χᵐ(u).
func (x *Index) ChiUp(v graph.V, from, to int) graph.V {
	for m := from + 1; m <= to; m++ {
		v = x.layers[m].Up[v]
	}
	return v
}

// SpecializeStep expands supernodes of layer m to their members at layer
// m−1 (Spec of Sec. 4.2, one step). keep filters the members (pass nil to
// keep all); it implements the candidate filtering of Prop 4.1 when given a
// label test.
func (x *Index) SpecializeStep(supernodes []graph.V, m int, keep func(graph.V) bool) []graph.V {
	out, _ := x.specializeStepCounted(supernodes, m, keep)
	return out
}

// specializeStepCounted is SpecializeStep reporting how many distinct
// members were examined before the keep filter — examined−len(out) is the
// Prop 4.1 pruning at this step.
func (x *Index) specializeStepCounted(supernodes []graph.V, m int, keep func(graph.V) bool) ([]graph.V, int) {
	down := x.layers[m].Down
	var out []graph.V
	examined := 0
	seen := make(map[graph.V]bool)
	for _, s := range supernodes {
		for _, v := range down[s] {
			if seen[v] {
				continue
			}
			seen[v] = true
			examined++
			if keep == nil || keep(v) {
				out = append(out, v)
			}
		}
	}
	return out, examined
}

// specTally accumulates the paper-phase specialization counters of one
// query: Prop 4.1 filter work, isKey early-filter steps (Sec. 4.3.1), and
// the candidate fan-out of each layer-descent step. Nil disables counting.
type specTally struct {
	prop41Checked  int   // candidates examined by the Prop 4.1 label filter
	prop41Filtered int   // … dropped by it
	isKeySteps     int   // label-filtered Spec steps above layer 1
	fanout         []int // candidates emerging from each descent step
}

// SpecializeRoot expands a layer-m supernode all the way to data vertices
// without label filtering (answer roots can carry any label).
func (x *Index) SpecializeRoot(s graph.V, m int) []graph.V {
	set := []graph.V{s}
	for j := m; j >= 1; j-- {
		set = x.SpecializeStep(set, j, nil)
	}
	return set
}

// SpecializeKeyword expands a layer-m supernode matched to query keyword kw
// down to data vertices. With early filtering (the isKey optimization of
// Sec. 4.3.1) members are pruned at every layer j unless their label equals
// Gen^j(kw) (Prop 4.1); without it, pruning happens only at layer 0. Both
// modes return the same set — early filtering only shrinks intermediates.
func (x *Index) SpecializeKeyword(s graph.V, m int, kw graph.Label, early bool) []graph.V {
	set := []graph.V{s}
	for j := m; j >= 1; j-- {
		want := x.seq.GenLabel(kw, j-1)
		lg := x.layers[j-1].Graph
		var keep func(graph.V) bool
		if early || j == 1 {
			keep = func(v graph.V) bool { return lg.Label(v) == want }
		}
		set = x.SpecializeStep(set, j, keep)
	}
	return set
}

// specializeRootSet expands a set of layer-m supernodes to data vertices
// without label filtering, deduplicating at every level (batch form of
// SpecializeRoot used by exhaustive evaluation). Each Spec step from layer
// j to j−1 is one child span of sp (nil sp disables tracing).
func (x *Index) specializeRootSet(supers []graph.V, m int, sp *obs.Span, tally *specTally, led *obs.Ledger) []graph.V {
	set := dedupVs(supers)
	for j := m; j >= 1; j-- {
		c := sp.StartChild("Spec/L"+strconv.Itoa(j-1)).SetAttr("role", "root").SetAttr("in", len(set))
		var examined int
		set, examined = x.specializeStepCounted(set, j, nil)
		led.AddLayerWork(j-1, int64(examined))
		c.SetAttr("out", len(set)).End()
		if tally != nil {
			tally.fanout = append(tally.fanout, len(set))
		}
	}
	return set
}

// specializeKeywordSet is the batch form of SpecializeKeyword; the
// per-layer spans record how much the Prop 4.1 label filter prunes (the
// in→out contraction at each step).
func (x *Index) specializeKeywordSet(supers []graph.V, m int, kw graph.Label, early bool, sp *obs.Span, tally *specTally, led *obs.Ledger) []graph.V {
	set := dedupVs(supers)
	for j := m; j >= 1; j-- {
		want := x.seq.GenLabel(kw, j-1)
		lg := x.layers[j-1].Graph
		var keep func(graph.V) bool
		if early || j == 1 {
			keep = func(v graph.V) bool { return lg.Label(v) == want }
		}
		c := sp.StartChild("Spec/L"+strconv.Itoa(j-1)).
			SetAttr("role", "keyword").SetAttr("keyword", int(kw)).
			SetAttr("filtered", keep != nil).SetAttr("in", len(set))
		var examined int
		set, examined = x.specializeStepCounted(set, j, keep)
		led.AddLayerWork(j-1, int64(examined))
		c.SetAttr("out", len(set)).End()
		if tally != nil {
			tally.fanout = append(tally.fanout, len(set))
			if keep != nil {
				tally.prop41Checked += examined
				tally.prop41Filtered += examined - len(set)
				if j > 1 {
					tally.isKeySteps++
				}
			}
		}
	}
	return set
}

func dedupVs(vs []graph.V) []graph.V {
	seen := make(map[graph.V]bool, len(vs))
	out := make([]graph.V, 0, len(vs))
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Stats summarizes the index for reports: per-layer |V|, |E|, and size
// ratio to the data graph (Table 3 / Fig. 9).
type Stats struct {
	Layers []LayerStats
}

// LayerStats is one row of Stats.
type LayerStats struct {
	Layer      int
	Vertices   int
	Edges      int
	Size       int
	Ratio      float64 // size / data graph size
	ConfigSize int
}

// Stats computes index statistics.
func (x *Index) Stats() Stats {
	base := float64(x.layers[0].Graph.Size())
	var st Stats
	for i, l := range x.layers {
		ls := LayerStats{
			Layer:    i,
			Vertices: l.Graph.NumVertices(),
			Edges:    l.Graph.NumEdges(),
			Size:     l.Graph.Size(),
			Ratio:    float64(l.Graph.Size()) / base,
		}
		if l.Config != nil {
			ls.ConfigSize = l.Config.Len()
		}
		st.Layers = append(st.Layers, ls)
	}
	return st
}

// TotalSize reports the BiG-index size: the sum of the summary graph sizes
// (Sec. 6, Exp-3: "The BiG-index size is simply the sum of the summary
// graphs in the index").
func (x *Index) TotalSize() int {
	total := 0
	for _, l := range x.layers[1:] {
		total += l.Graph.Size()
	}
	return total
}

// RemoveOntologyMapping handles the ontology-update case of Sec. 3.2: when
// the supertype relationship (sub → super) is removed from the ontology,
// every layer whose configuration used it — and every layer above it — is
// dropped, so no configuration in the remaining index involves the removed
// relationship. Returns the number of layers dropped. (New ontology edges
// never invalidate an index; the paper rebuilds periodically for
// efficiency, which callers do via Build.)
func (x *Index) RemoveOntologyMapping(sub, super graph.Label) int {
	for i, l := range x.layers[1:] {
		if l.Config.Map(sub) == super && sub != super {
			dropped := len(x.layers) - (i + 1)
			x.layers = x.layers[:i+1]
			x.seq = x.seq[:i]
			x.epoch.Add(1)
			return dropped
		}
	}
	return 0
}
