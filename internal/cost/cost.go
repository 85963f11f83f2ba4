// Package cost implements the two cost models of the paper: Formula 3,
// which scores a generalization configuration during index construction
// (Sec. 3.2), and Formula 4, which scores evaluating a query at a given
// index layer (Sec. 4.1). It also implements Algorithm 1, the one-step
// greedy heuristic for choosing a per-layer configuration — the exact
// optimization is NP-hard (Theorem 3.1).
package cost

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"

	"bigindex/internal/generalize"
	"bigindex/internal/graph"
	"bigindex/internal/ontology"
	"bigindex/internal/sampling"
)

// Model scores configurations with Formula 3:
//
//	cost(G, C) = α·compress(G, C) + (1−α)·distort(G, C)
//
// compress is estimated by the sampling Estimator (building the real
// summary for every candidate would defeat the purpose of the heuristic);
// distort is exact (it only needs label supports).
type Model struct {
	Alpha     float64
	Estimator *sampling.Estimator
}

// Cost returns cost(G, C) per Formula 3.
func (m *Model) Cost(g *graph.Graph, cfg *generalize.Config) float64 {
	return m.Alpha*m.Estimator.EstimateCompress(cfg) + (1-m.Alpha)*cfg.Distortion(g)
}

// SearchOptions parameterizes GreedyConfig (Algorithm 1).
type SearchOptions struct {
	// Theta is the cost threshold θ: a candidate is accepted only while
	// cost(G, C ∪ {c_i}) ≤ θ.
	Theta float64
	// Pi is the budget Π on |C|; 0 means unlimited.
	Pi int
	// Alpha is the compress/distort weight of Formula 3.
	Alpha float64
	// SampleRadius is the r of the node-induced sample subgraphs.
	SampleRadius int
	// SampleCount is the number of samples n (e.g. SampleSize(1.96, 0.05)).
	SampleCount int
	// Seed makes the sampling deterministic.
	Seed int64
}

// DefaultSearchOptions mirrors the paper's defaults: 400 samples of radius
// 2, α = 0.5, and a permissive θ so one full generalization round happens
// per layer (the paper's "default indexes", Sec. 6.1.2).
func DefaultSearchOptions() SearchOptions {
	return SearchOptions{
		Theta:        1.0,
		Pi:           0,
		Alpha:        0.5,
		SampleRadius: 2,
		SampleCount:  400,
		Seed:         1,
	}
}

type candidate struct {
	mapping generalize.Mapping
	cost    float64
}

type candidateHeap []candidate

func (h candidateHeap) Len() int            { return len(h) }
func (h candidateHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(candidate)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// GreedyConfig implements Algorithm 1. Candidate generalizations are the
// ontology edges (ℓ → ℓ′) whose source ℓ actually labels some vertex of g;
// each is scored alone with Formula 3 and pushed on a min-heap; candidates
// are then accepted greedily while the cumulative configuration stays under
// θ, stopping at the budget Π or at the first rejection.
//
// Scoring the cumulative configuration for every candidate is made
// practical by incremental bookkeeping: the sampling session re-summarizes
// only samples containing the candidate's source label, and the
// ConfigBuilder maintains distortion in O(1) per mapping.
//
// The returned Estimator is the sample set used for scoring, so callers
// (and Exp-4) can reuse it.
func GreedyConfig(g *graph.Graph, ont *ontology.Ontology, opt SearchOptions) (*generalize.Config, *sampling.Estimator) {
	est := sampling.NewEstimator(g, opt.SampleRadius, opt.SampleCount, opt.Seed)

	builder := generalize.NewConfigBuilder(g)
	inc := est.StartIncremental(builder)

	// Score each candidate alone: cost(G, {c_i}). A singleton's distortion
	// is zero by definition (|X_ℓ| = 1), so the ranking is by compression.
	// The scores are independent, so they are computed on every CPU into
	// a slice in candidate order and pushed in that order, which keeps
	// the heap's tie-breaking what a sequential loop gives.
	scorer := generalize.NewConfigBuilder(g)
	scoreInc := est.StartIncremental(scorer)
	var cands []candidate
	for _, l := range g.DistinctLabels() {
		for _, super := range ont.DirectSupertypes(l) {
			cands = append(cands, candidate{mapping: generalize.Mapping{From: l, To: super}})
		}
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for range min(runtime.GOMAXPROCS(0), len(cands)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				compress, _ := scoreInc.CompressWith(cands[i].mapping)
				cands[i].cost = opt.Alpha * compress
			}
		}()
	}
	wg.Wait()
	h := &candidateHeap{}
	for _, c := range cands {
		heap.Push(h, c)
	}

	for h.Len() > 0 {
		if opt.Pi > 0 && builder.Len() >= opt.Pi {
			break
		}
		c := heap.Pop(h).(candidate)
		if builder.InDomain(c.mapping.From) {
			// A different supertype already claimed this label; a
			// configuration is a function on Σ.
			continue
		}
		compress, touched := inc.CompressWith(c.mapping)
		cum := opt.Alpha*compress + (1-opt.Alpha)*builder.DistortionWith(c.mapping)
		if cum <= opt.Theta {
			if err := builder.Add(c.mapping); err != nil {
				continue
			}
			inc.Accept(c.mapping, touched)
		} else {
			// Algorithm 1 returns as soon as a candidate is rejected: the
			// queue is cost-ordered, so later candidates only cost more.
			break
		}
	}
	return builder.Snapshot(), est
}
