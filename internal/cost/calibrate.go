package cost

import (
	"sort"
	"sync"
)

// Calibration audits Formula 4 against observed query cost. Each evaluated
// query contributes a Sample: the model terms at the layer it ran on
// (compression ratio and relative support, from its cost Table) plus the
// work the query actually performed, normalized by data-graph size so it
// lives on the same relative scale as the model's cost. A bounded ring
// keeps the most recent window; Fit solves the least-squares problem
//
//	observed ≈ a·compress(chosen) + b·sup(chosen)
//
// over the window. The model's cost is linear in β — Formula 4 is
// β·compress + (1−β)·sup — so the fitted coefficient pair yields a scale-
// free suggested β̂ = a/(a+b): the β under which the model's layer ranking
// best matches what queries actually cost. Table.Argmin at the fitted
// coefficients re-ranks a query's layers, which is how misroutes (a
// different layer would have been cheaper) are detected.
type Calibration struct {
	mu   sync.Mutex
	ring []Sample
	next int
	n    int64 // total samples ever added
}

// Sample is one evaluated query in the calibration window.
type Sample struct {
	Algo     string
	Layer    int     // the layer the query was evaluated at
	Compress float64 // Formula 4's terms at Layer (its Row of the query's Table)
	Sup      float64
	// Observed is the query's ledger work units divided by the data-graph
	// size |G| — the measured analogue of cost_q(m), which predicts work
	// relative to evaluating on the full data graph.
	Observed float64
}

// fitMinSamples is the window floor below which Fit declines: with fewer
// points the normal equations are dominated by noise.
const fitMinSamples = 16

// NewCalibration creates a calibration window holding up to size samples
// (0 = 512).
func NewCalibration(size int) *Calibration {
	if size <= 0 {
		size = 512
	}
	return &Calibration{ring: make([]Sample, 0, size)}
}

// Add records a sample, evicting the oldest once the window is full.
// Samples with non-positive observed work are ignored (nothing to fit).
func (c *Calibration) Add(s Sample) {
	if c == nil || s.Observed <= 0 || s.Layer < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, s)
		return
	}
	c.ring[c.next] = s
	c.next = (c.next + 1) % len(c.ring)
}

// Len returns the current window size; Total the samples ever added.
func (c *Calibration) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ring)
}

// Total returns the number of samples ever added.
func (c *Calibration) Total() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Fit solves the window's least squares for (a, b) ≥ 0 and derives the
// suggested β̂ = a/(a+b). ok is false below fitMinSamples or when the
// system is degenerate (e.g. all samples at one layer with collinear
// terms), in which case callers keep the configured β. The sums run over
// the ring in place, under the lock, so Fit allocates nothing.
func (c *Calibration) Fit() (beta, a, b float64, ok bool) {
	if c == nil {
		return 0, 0, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ring) < fitMinSamples {
		return 0, 0, 0, false
	}
	var scc, scs, sss, scw, ssw float64
	for i := range c.ring {
		s := &c.ring[i]
		cm, sm := s.Compress, s.Sup
		scc += cm * cm
		scs += cm * sm
		sss += sm * sm
		scw += cm * s.Observed
		ssw += sm * s.Observed
	}
	det := scc*sss - scs*scs
	if det > 1e-12*scc*sss && scc > 0 && sss > 0 {
		a = (scw*sss - ssw*scs) / det
		b = (scc*ssw - scs*scw) / det
	} else {
		// Degenerate (collinear terms): fall back to a single shared scale,
		// which fits the magnitude but cannot separate the two terms.
		if scc+2*scs+sss <= 0 {
			return 0, 0, 0, false
		}
		scale := (scw + ssw) / (scc + 2*scs + sss)
		a, b = scale, scale
	}
	if a < 0 {
		a = 0
	}
	if b < 0 {
		b = 0
	}
	if a+b <= 0 {
		return 0, 0, 0, false
	}
	return a / (a + b), a, b, true
}

// LayerCalibration is one (algo, chosen layer) group of the calibration
// summary: how far the model's predicted cost sits from observed work.
type LayerCalibration struct {
	Algo          string  `json:"algo"`
	Layer         int     `json:"layer"`
	Count         int     `json:"count"`
	MeanPredicted float64 `json:"mean_predicted"`
	MeanObserved  float64 `json:"mean_observed"`
	MeanRatio     float64 `json:"mean_ratio"` // mean of per-query predicted/observed
}

// Summary groups the window by (algo, chosen layer) and reports the
// predicted-vs-observed statistics under the given β — the configured β,
// so drift between the summary and Fit's β̂ is the calibration error.
func (c *Calibration) Summary(beta float64) []LayerCalibration {
	if c == nil {
		return nil
	}
	type groupKey struct {
		algo  string
		layer int
	}
	type agg struct {
		n                int
		pred, obs, ratio float64
	}
	groups := map[groupKey]*agg{}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.ring {
		s := &c.ring[i]
		pred := beta*s.Compress + (1-beta)*s.Sup
		k := groupKey{s.Algo, s.Layer}
		g := groups[k]
		if g == nil {
			g = &agg{}
			groups[k] = g
		}
		g.n++
		g.pred += pred
		g.obs += s.Observed
		if s.Observed > 0 {
			g.ratio += pred / s.Observed
		}
	}
	out := make([]LayerCalibration, 0, len(groups))
	for k, g := range groups {
		out = append(out, LayerCalibration{
			Algo:          k.algo,
			Layer:         k.layer,
			Count:         g.n,
			MeanPredicted: g.pred / float64(g.n),
			MeanObserved:  g.obs / float64(g.n),
			MeanRatio:     g.ratio / float64(g.n),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Algo != out[j].Algo {
			return out[i].Algo < out[j].Algo
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}
