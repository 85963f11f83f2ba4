package server

// Formula 4 calibration audit: every uncached hierarchical /query
// evaluation contributes its ledger-measured work to a calibration window
// (internal/cost), the predicted/observed ratio is exported as a
// histogram, and GET /debug/costmodel reports per-(algo, layer)
// calibration plus the least-squares β̂ the window suggests.

import (
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"bigindex/internal/core"
	"bigindex/internal/cost"
	"bigindex/internal/obs"
)

// costAudit holds the calibration window and its exported metrics.
type costAudit struct {
	cal       *cost.Calibration
	errRatio  *obs.HistogramVec
	misroute  *obs.CounterVec
	misroutes atomic.Int64 // sum across algos, for /debug/costmodel
}

func newCostAudit(reg *obs.Registry) *costAudit {
	return &costAudit{
		cal: cost.NewCalibration(0),
		errRatio: reg.HistogramVec("bigindex_costmodel_error",
			"Formula 4 calibration: predicted layer cost divided by observed size-normalized work, by algorithm and chosen layer.",
			[]float64{0.0625, 0.125, 0.25, 0.5, 0.75, 1, 1.5, 2, 4, 8, 16},
			"algo", "layer"),
		misroute: reg.CounterVec("bigindex_costmodel_misroute_total",
			"Routed queries where the calibrated cost model prefers a different legal layer.",
			"algo"),
	}
}

// auditCost feeds one hierarchical evaluation into the calibration audit,
// reading Formula 4's terms from the query's cost table on bd. Called from
// evalQuery after a successful evaluation; direct (baseline) evaluations
// and cache hits never reach it. Queries at a client-pinned layer
// (req.layer >= 0) enter the window too — their observed work at that
// layer is as much a calibration point as a routed query's — but only
// routed queries are checked for misroutes: for a pinned one the router
// made no choice.
func (s *Server) auditCost(req request, bd *core.Breakdown, led *obs.Ledger) {
	a := s.audit
	if a == nil || led == nil || bd == nil {
		return
	}
	work := led.WorkUnits()
	size := req.ev.Index().Data().Size()
	if work <= 0 || size <= 0 {
		return
	}
	observed := float64(work) / float64(size)
	beta := req.ev.Options().Beta
	row := bd.Costs[bd.Layer]
	a.errRatio.With(req.algo, strconv.Itoa(bd.Layer)).Observe(bd.Costs.Cost(bd.Layer, beta) / observed)
	a.cal.Add(cost.Sample{Algo: req.algo, Layer: bd.Layer, Compress: row.Compress, Sup: row.Sup, Observed: observed})
	if req.layer >= 0 {
		return
	}
	if _, fa, fb, ok := a.cal.Fit(); ok && bd.Costs.Argmin(fa, fb) != bd.Layer {
		a.misroute.With(req.algo).Inc()
		a.misroutes.Add(1)
	}
}

// handleDebugCostmodel reports the calibration window: per-(algo, layer)
// predicted-vs-observed means under the configured β, the least-squares
// fit over the window, and the β̂ correction it suggests. Gated behind
// Options.Debug.Endpoints like the other /debug surfaces.
func (s *Server) handleDebugCostmodel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	a := s.audit
	beta := core.DefaultEvalOptions().Beta
	out := struct {
		ConfiguredBeta float64                 `json:"configured_beta"`
		Window         int                     `json:"window"`
		TotalSamples   int64                   `json:"total_samples"`
		SuggestedBeta  *float64                `json:"suggested_beta,omitempty"`
		FitA           *float64                `json:"fit_compress_coeff,omitempty"`
		FitB           *float64                `json:"fit_support_coeff,omitempty"`
		Misroutes      int64                   `json:"misroutes"`
		Layers         []cost.LayerCalibration `json:"layers"`
	}{
		ConfiguredBeta: beta,
		Window:         a.cal.Len(),
		TotalSamples:   a.cal.Total(),
		Misroutes:      a.misroutes.Load(),
		Layers:         a.cal.Summary(beta),
	}
	if betaHat, fa, fb, ok := a.cal.Fit(); ok {
		out.SuggestedBeta, out.FitA, out.FitB = &betaHat, &fa, &fb
	}
	writeJSON(w, out)
}
