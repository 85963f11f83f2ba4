package sampling

import (
	"bigindex/internal/generalize"
	"bigindex/internal/graph"
)

// Incremental maintains the per-sample compression ratios of a growing
// configuration so that Algorithm 1 can score cost(G, C ∪ {c_i}) by
// re-summarizing only the samples that contain c_i's source label — adding
// a mapping cannot change the summary of a sample whose label set misses
// the mapped label. This turns the greedy search from O(candidates ×
// samples) summarizations into O(Σ_label |samples containing label|).
//
// The caller owns the growing configuration (a generalize.ConfigBuilder);
// the session reads it through the Mapper view and must be told about every
// accepted mapping via Accept.
type Incremental struct {
	est    *Estimator
	mapper generalize.Mapper
	ratios []float64
	// byLabel[l] lists the sample indices whose label set contains l.
	byLabel map[graph.Label][]int
}

// StartIncremental begins an incremental scoring session over mapper
// (typically a ConfigBuilder that starts empty).
func (e *Estimator) StartIncremental(mapper generalize.Mapper) *Incremental {
	inc := &Incremental{
		est:     e,
		mapper:  mapper,
		ratios:  append([]float64(nil), e.baseline...),
		byLabel: make(map[graph.Label][]int),
	}
	for i, ls := range e.labels {
		for l := range ls {
			inc.byLabel[l] = append(inc.byLabel[l], i)
		}
	}
	return inc
}

// extMapper views mapper ∪ {m} without mutating mapper.
type extMapper struct {
	base generalize.Mapper
	m    generalize.Mapping
}

func (e extMapper) Map(l graph.Label) graph.Label {
	if l == e.m.From {
		return e.m.To
	}
	return e.base.Map(l)
}

func (e extMapper) InDomain(l graph.Label) bool {
	return l == e.m.From || e.base.InDomain(l)
}

// Compress returns the estimated compress of the current configuration.
func (inc *Incremental) Compress() float64 {
	if len(inc.ratios) == 0 {
		return 1
	}
	s := 0.0
	for _, r := range inc.ratios {
		s += r
	}
	return s / float64(len(inc.ratios))
}

// CompressWith returns the estimated compress of C ∪ {m} without accepting
// it, re-summarizing only the touched samples. The returned slice carries
// the recomputed ratios of the samples containing m.From, in the session's
// order, for Accept to apply. Sessions that only score may call
// CompressWith concurrently.
func (inc *Incremental) CompressWith(m generalize.Mapping) (float64, []float64) {
	if len(inc.ratios) == 0 {
		return 1, nil
	}
	ext := extMapper{base: inc.mapper, m: m}
	idx := inc.byLabel[m.From]
	touched := make([]float64, len(idx))
	sum := 0.0
	for _, r := range inc.ratios {
		sum += r
	}
	for k, i := range idx {
		nr := compressRatio(inc.est.samples[i], ext.Map)
		touched[k] = nr
		sum += nr - inc.ratios[i]
	}
	return sum / float64(len(inc.ratios)), touched
}

// Accept records that m was added to the underlying configuration, applying
// the per-sample ratios computed by CompressWith (recomputed if nil; the
// caller must have already added m to the builder in that case).
func (inc *Incremental) Accept(m generalize.Mapping, touched []float64) {
	for k, i := range inc.byLabel[m.From] {
		if touched == nil {
			inc.ratios[i] = compressRatio(inc.est.samples[i], inc.mapper.Map)
		} else {
			inc.ratios[i] = touched[k]
		}
	}
}
