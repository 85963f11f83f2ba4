// Package sampling implements the graph-sampling machinery of the index
// cost model (Sec. 3.2): computing the exact compression ratio of a
// configuration requires generalizing and summarizing the whole data graph,
// which is too expensive inside the configuration search, so the ratio is
// estimated on n node-induced subgraphs of radius r around random vertices.
// The package also provides the proportion-estimation sample-size formula
// and the Spearman rank correlation used by Exp-4 to validate the estimate.
package sampling

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"bigindex/internal/bisim"
	"bigindex/internal/generalize"
	"bigindex/internal/graph"
	"bigindex/internal/search"
)

// SampleSize returns n = 0.5·0.5·(z/E)², the estimation-of-proportion sample
// size for confidence value z and maximum allowable error e (Sec. 3.2's
// example: z = 1.96, E = 0.05 gives n ≈ 385, which the paper rounds to 400).
func SampleSize(z, e float64) int {
	return int(math.Ceil(0.25 * (z / e) * (z / e)))
}

// Estimator estimates compression ratios of configurations by sampling.
// Samples are drawn once and reused across configurations so that the
// greedy search (Algo 1) ranks candidates on a consistent basis.
//
// Two caches make scoring thousands of candidate configurations practical:
// the baseline ratio |Bisim(S)|/|S| of every sample (a configuration whose
// domain does not intersect a sample's labels cannot change that sample's
// summary), and each sample's label set to detect exactly that case.
type Estimator struct {
	samples  []*graph.Graph
	baseline []float64              // |Bisim(S)|/|S| with the identity config
	labels   []map[graph.Label]bool // label set of each sample
	radius   int
}

// NewEstimator draws n node-induced subgraphs from g: each sample is the
// subgraph induced by the vertices reachable within radius hops of a
// uniformly random vertex (forward direction, matching the bounded
// traversals of keyword search semantics). A deterministic rng seed makes
// experiments reproducible.
func NewEstimator(g *graph.Graph, radius, n int, seed int64) *Estimator {
	rng := rand.New(rand.NewSource(seed))
	e := &Estimator{radius: radius}
	if g.NumVertices() == 0 {
		return e
	}
	// Sources are drawn serially (deterministic rng stream); sample
	// extraction and baseline summarization are independent per sample and
	// run across CPUs, each worker drawing its balls on one pooled Scratch.
	sources := make([]graph.V, n)
	for i := range sources {
		sources[i] = graph.V(rng.Intn(g.NumVertices()))
	}
	e.samples = make([]*graph.Graph, n)
	e.baseline = make([]float64, n)
	e.labels = make([]map[graph.Label]bool, n)

	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := search.GetScratch(g.NumVertices(), 0)
			defer search.PutScratch(s)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				vs := s.Ball(g, sources[i:i+1], radius, search.Out)
				sub, _ := g.InducedSubgraph(vs)
				e.samples[i] = sub
				e.baseline[i] = compressRatio(sub, func(l graph.Label) graph.Label { return l })
				ls := make(map[graph.Label]bool)
				for _, l := range sub.DistinctLabels() {
					ls[l] = true
				}
				e.labels[i] = ls
			}
		}()
	}
	wg.Wait()
	return e
}

// touches reports whether a configuration with domain dom can change
// sample i's summary: true iff dom intersects the sample's label set.
func (e *Estimator) touches(i int, dom []graph.Label) bool {
	for _, l := range dom {
		if e.labels[i][l] {
			return true
		}
	}
	return false
}

// NumSamples reports how many sample subgraphs were drawn.
func (e *Estimator) NumSamples() int { return len(e.samples) }

// Radius reports the sampling radius r.
func (e *Estimator) Radius() int { return e.radius }

// EstimateCompress estimates compress(G, C): the mean, over the samples, of
// |Bisim(Gen(S, C))| / |S|. Values are in (0, 1]; smaller is better.
// Samples untouched by C reuse their cached baseline ratio.
func (e *Estimator) EstimateCompress(cfg *generalize.Config) float64 {
	return e.EstimateCompressPrefix(cfg, len(e.samples))
}

// EstimateCompressPrefix estimates compress using only the first n samples;
// Fig. 16 sweeps n to show where the estimate stabilizes.
func (e *Estimator) EstimateCompressPrefix(cfg *generalize.Config, n int) float64 {
	if n > len(e.samples) {
		n = len(e.samples)
	}
	if n == 0 {
		return 1
	}
	dom := cfg.Domain()
	sum := 0.0
	for i, s := range e.samples[:n] {
		if e.touches(i, dom) {
			sum += compressRatio(s, cfg.Map)
		} else {
			sum += e.baseline[i]
		}
	}
	return sum / float64(n)
}

// sizers recycles the count-only bisimulation buffers across samples,
// candidates and workers; they stay sample-sized.
var sizers = sync.Pool{New: func() any { return new(bisim.Sizer) }}

// compressRatio returns |Bisim(Gen(s))| / |s|, where Gen reads every label
// l of s as label(l). It counts the summary without relabelling s or
// building the summary graph.
func compressRatio(s *graph.Graph, label func(graph.Label) graph.Label) float64 {
	if s.Size() == 0 {
		return 1
	}
	z := sizers.Get().(*bisim.Sizer)
	size := z.Size(s, label)
	sizers.Put(z)
	return float64(size) / float64(s.Size())
}

// ExactCompress computes the true compression ratio |χ(G,C)| / |G| on the
// full graph; the ground truth that Exp-4 correlates estimates against.
func ExactCompress(g *graph.Graph, cfg *generalize.Config) float64 {
	if g.Size() == 0 {
		return 1
	}
	// A fresh Sizer keeps graph-sized buffers out of the samples' pool.
	var z bisim.Sizer
	return float64(z.Size(g, cfg.Map)) / float64(g.Size())
}

// Spearman returns the Spearman rank correlation coefficient r_s between two
// equal-length samples (average ranks for ties). Exp-4 reports r_s between
// the estimated and exact compression of 100 configurations; the paper
// obtains r_s = 0.541 against a critical value of 0.326 at α = 0.001.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra, rb := ranks(a), ranks(b)
	return pearson(ra, rb)
}

func ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return x[idx[i]] < x[idx[j]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1 // 1-based average rank across the tie run
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}
