package server

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/graph"
	"bigindex/internal/qcache"
)

// request is one keyword query after parsing: every parameter of /query
// read, validated and canonicalized once, against the index version it
// runs on. /query, /explain and Warm build it with parseRequest, so what
// the shed gate, the live registry, the cache key, the recorder and the
// response see is one value.
type request struct {
	raw     string          // the q parameter as sent (request log, recorder)
	q       []graph.Label   // canonical keyword labels: sorted, deduplicated
	notes   []string        // how free-text keywords were resolved
	algo    string          // canonical algorithm name; absent means "blinks"
	ev      *core.Evaluator // the shared evaluator of algo on this index version
	k       int             // top-k, 1..MaxK (default 10)
	layer   int             // pinned layer, or -1 to let Formula 4 route
	timeout time.Duration   // evaluation deadline; 0 = none
	direct  bool            // run the layer-0 baseline instead of the hierarchy
	nocache bool            // neither read nor store the result cache
	trace   bool            // embed the span tree in the response
}

// parseRequest is the one reader of a query's parameters. It resolves q
// through st's text index into canonical labels (keyword search is set
// semantics, Def. 2.3, so "b,a,a" and "a,b" share one cache key, one
// singleflight slot and one evaluation), names the algorithm once and
// resolves its evaluator under that name, and validates k (1..MaxK),
// layer (0..h when present), timeout (clamped under QueryTimeout) and the
// booleans direct, nocache and trace. Any malformed parameter is an
// error, which the endpoints answer with 400.
func (s *Server) parseRequest(st *indexState, vals url.Values) (request, error) {
	req := request{raw: vals.Get("q"), algo: vals.Get("algo")}
	if req.algo == "" {
		req.algo = "blinks"
	}
	if req.raw == "" {
		return req, fmt.Errorf("missing q parameter")
	}
	kws := strings.Split(req.raw, ",")
	for i := range kws {
		kws[i] = strings.TrimSpace(kws[i])
	}
	q, notes, err := st.tix.Resolve(kws, st.idx.Data())
	if err != nil {
		return req, err
	}
	req.q, req.notes = qcache.CanonicalLabels(q), notes
	if req.k, err = intParam(vals, "k", 10); err != nil {
		return req, err
	}
	if req.k < 1 || req.k > s.opt.MaxK {
		return req, fmt.Errorf("parameter k=%d out of range (1..%d)", req.k, s.opt.MaxK)
	}
	// Absent, the layer is -1 and Formula 4 routes; present, it must name
	// one of the index's layers.
	if req.layer, err = intParam(vals, "layer", -1); err != nil {
		return req, err
	}
	if n := st.idx.NumLayers(); vals.Get("layer") != "" && (req.layer < 0 || req.layer >= n) {
		return req, fmt.Errorf("layer %d out of range (index has layers 0..%d)", req.layer, n-1)
	}
	req.timeout = s.opt.QueryTimeout
	if raw := vals.Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		switch {
		case err != nil:
			return req, fmt.Errorf("parameter timeout=%q is not a duration (try 500ms, 2s)", raw)
		case d <= 0:
			return req, fmt.Errorf("parameter timeout=%q must be positive", raw)
		case req.timeout == 0 || d < req.timeout:
			req.timeout = d // &timeout= shortens the server's deadline, never extends it
		}
	}
	if req.direct, err = boolParam(vals, "direct"); err != nil {
		return req, err
	}
	if req.nocache, err = boolParam(vals, "nocache"); err != nil {
		return req, err
	}
	if req.trace, err = boolParam(vals, "trace"); err != nil {
		return req, err
	}
	req.ev, err = s.evaluator(st, req.algo)
	return req, err
}

// key is the request's result-cache key at an index epoch.
func (r request) key(epoch uint64) string {
	return qcache.Key(r.algo, r.direct, r.q, r.k, r.layer, epoch)
}

// mode labels the request's evaluation path in metrics and logs.
func (r request) mode() string {
	if r.direct {
		return "direct"
	}
	return "eval"
}

// intParam parses an optional integer parameter: absent keeps def,
// malformed is a client error.
func intParam(vals url.Values, name string, def int) (int, error) {
	raw := vals.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, raw)
	}
	return v, nil
}

// boolParam parses an optional boolean parameter: absent is false,
// anything strconv.ParseBool accepts (1, 0, t, f, true, false, ...) is
// that value, and the rest is a client error.
func boolParam(vals url.Values, name string) (bool, error) {
	raw := vals.Get(name)
	if raw == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("parameter %s=%q is not a boolean (1, 0, true, false)", name, raw)
	}
	return v, nil
}
