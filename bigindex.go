// Package bigindex is the public API of this repository: a from-scratch Go
// implementation of BiG-index — "A Generic Ontology Framework for Indexing
// Keyword Search on Massive Graphs" (Jiang, Choi, Xu, Bhowmick; TKDE 2019 /
// ICDE 2021 extended abstract).
//
// BiG-index turns a labeled directed graph G and its ontology graph G_Ont
// into a hierarchy of summary graphs: each layer generalizes labels to
// supertypes (Gen) and collapses bisimilar vertices (Bisim). Keyword
// queries are generalized to a cost-model-chosen layer, evaluated there by
// a pluggable keyword search algorithm (Blinks, r-clique, and BANKS-style
// backward search ship in this module), and the generalized answers are
// specialized back to exact data-graph answers.
//
// Quick start:
//
//	dict := bigindex.NewDict()
//	ont := bigindex.NewOntology(dict)
//	ont.AddSupertypeNames("UC Berkeley", "Univ.")
//	// … add more taxonomy …
//
//	b := bigindex.NewGraphBuilder(dict)
//	berkeley := b.AddVertex("UC Berkeley")
//	russell := b.AddVertex("S. Russell")
//	b.AddEdge(russell, berkeley)
//	g := b.Build()
//
//	idx, err := bigindex.Build(g, ont, bigindex.DefaultBuildOptions())
//	ev := bigindex.NewEvaluator(idx, bigindex.NewBlinks(bigindex.BlinksOptions{DMax: 3}),
//		bigindex.DefaultEvalOptions())
//	matches, breakdown, err := ev.Eval([]bigindex.Label{dict.Lookup("UC Berkeley")})
//
// The facade re-exports the stable types from the internal packages; the
// internal layout follows the paper's architecture (see DESIGN.md).
package bigindex

import (
	"io"

	"bigindex/internal/bisim"
	"bigindex/internal/core"
	"bigindex/internal/cost"
	"bigindex/internal/datagen"
	"bigindex/internal/generalize"
	"bigindex/internal/graph"
	"bigindex/internal/ontology"
	"bigindex/internal/search"
	"bigindex/internal/search/bidir"
	"bigindex/internal/search/bkws"
	"bigindex/internal/search/blinks"
	"bigindex/internal/search/rclique"
	"bigindex/internal/text"
)

// Graph substrate.
type (
	// Graph is an immutable labeled directed graph (the data graph G).
	Graph = graph.Graph
	// GraphBuilder accumulates vertices and edges.
	GraphBuilder = graph.Builder
	// Dict interns label strings.
	Dict = graph.Dict
	// Label is an interned label.
	Label = graph.Label
	// V is a vertex ID.
	V = graph.V
	// Edge is a directed edge.
	Edge = graph.Edge
	// Subgraph is an answer subgraph view.
	Subgraph = graph.Subgraph
)

// NewDict returns an empty label dictionary.
func NewDict() *Dict { return graph.NewDict() }

// NewGraphBuilder returns a graph builder over dict (nil for a fresh one).
func NewGraphBuilder(dict *Dict) *GraphBuilder { return graph.NewBuilder(dict) }

// Ontology graph.
type Ontology = ontology.Ontology

// NewOntology returns an empty ontology over dict (nil for a fresh one).
func NewOntology(dict *Dict) *Ontology { return ontology.New(dict) }

// Bisimulation summarization.
type BisimResult = bisim.Result

// Bisim computes the maximal bisimulation summary of g (the paper's
// Bisim(G)).
func Bisim(g *Graph) *BisimResult { return bisim.Compute(g) }

// Generalization.
type (
	// Config is a generalization configuration C = {ℓ→ℓ′}.
	Config = generalize.Config
	// Mapping is one configuration entry.
	Mapping = generalize.Mapping
)

// NewConfig builds a configuration from mappings.
func NewConfig(ms []Mapping) (*Config, error) { return generalize.NewConfig(ms) }

// The index and evaluation.
type (
	// Index is a built BiG-index (𝔾, 𝒞).
	Index = core.Index
	// BuildOptions controls index construction.
	BuildOptions = core.BuildOptions
	// Evaluator runs eval_Ont for one algorithm over one index.
	Evaluator = core.Evaluator
	// EvalOptions controls hierarchical evaluation.
	EvalOptions = core.EvalOptions
	// Breakdown reports evaluation phase timings.
	Breakdown = core.Breakdown
	// AnswerPattern is a generalized answer subgraph whose concrete answer
	// graphs can be enumerated with the literal Algo 3 / Algo 4 machinery
	// (Index.AnswerGraphs / Index.AnswerGraphsPathBased).
	AnswerPattern = core.AnswerPattern
	// Embedding maps pattern supernodes to data vertices.
	Embedding = core.Embedding
	// ConfigSearchOptions controls the Algorithm-1 greedy configuration
	// search used during Build.
	ConfigSearchOptions = cost.SearchOptions
)

// Build constructs a BiG-index for g against ont.
func Build(g *Graph, ont *Ontology, opt BuildOptions) (*Index, error) {
	return core.Build(g, ont, opt)
}

// DefaultBuildOptions mirrors the paper's default index construction.
func DefaultBuildOptions() BuildOptions { return core.DefaultBuildOptions() }

// NewEvaluator creates an evaluator for algo over idx.
func NewEvaluator(idx *Index, algo Algorithm, opt EvalOptions) *Evaluator {
	return core.NewEvaluator(idx, algo, opt)
}

// DefaultEvalOptions enables all optimizations with β = 0.5 and automatic
// layer selection.
func DefaultEvalOptions() EvalOptions { return core.DefaultEvalOptions() }

// Search plug-ins.
type (
	// Algorithm is a pluggable keyword search semantics (the paper's f).
	Algorithm = search.Algorithm
	// Match is one query answer.
	Match = search.Match
	// BlinksOptions configures the Blinks instance.
	BlinksOptions = blinks.Options
	// RCliqueOptions configures the r-clique instance.
	RCliqueOptions = rclique.Options
)

// NewBKWS returns a BANKS-style backward keyword search with bound dmax.
func NewBKWS(dmax int) Algorithm { return bkws.New(dmax) }

// NewBidir returns a bidirectional-expansion search (Kacholia et al.) with
// bound dmax; same distinct-root semantics as bkws/Blinks, selective-first
// exploration.
func NewBidir(dmax int) Algorithm { return bidir.New(dmax) }

// NewBlinks returns a Blinks instance (bi-level partition index).
func NewBlinks(opt BlinksOptions) Algorithm { return blinks.New(opt) }

// NewRClique returns an r-clique instance.
func NewRClique(opt RCliqueOptions) Algorithm { return rclique.NewWithOptions(opt) }

// Synthetic data generation (the experiment substrate).
type (
	// DatasetOptions parameterizes a synthetic knowledge graph.
	DatasetOptions = datagen.Options
	// Dataset is a generated knowledge graph with ontology and metadata.
	Dataset = datagen.Dataset
	// Query is one benchmark keyword query.
	Query = datagen.Query
	// WorkloadOptions controls query workload generation.
	WorkloadOptions = datagen.WorkloadOptions
)

// GenerateDataset builds a synthetic knowledge graph.
func GenerateDataset(opt DatasetOptions) *Dataset { return datagen.Generate(opt) }

// GenerateQueries builds a benchmark workload over ds.
func GenerateQueries(ds *Dataset, opt WorkloadOptions) []Query {
	return datagen.Queries(ds, opt)
}

// DefaultWorkload mirrors the paper's Q1-Q8 query-set shape.
func DefaultWorkload() WorkloadOptions { return datagen.DefaultWorkload() }

// TextIndex resolves free-text keywords to labels (tokenized inverted
// index with exact, AND-token, and prefix matching).
type TextIndex = text.Index

// NewTextIndex indexes the label names of dict that occur in g (nil g
// indexes the whole dictionary, ontology types included).
func NewTextIndex(dict *Dict, g *Graph) *TextIndex { return text.NewIndex(dict, g) }

// SaveIndex serializes idx to w in the binary index format.
func SaveIndex(idx *Index, w io.Writer) error { return idx.Save(w) }

// LoadIndex deserializes an index written by SaveIndex, re-binding it to
// ont (pass the ontology the index was built against; its configurations
// are re-validated). The loaded index carries its own dictionary —
// LoadIndex callers intern query keywords through idx.Data().Dict().
func LoadIndex(r io.Reader, ont *Ontology) (*Index, error) { return core.Load(r, ont) }
