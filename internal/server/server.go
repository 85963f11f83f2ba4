// Package server exposes a BiG-index over HTTP with a JSON API — the
// deployment surface a system like this ships with (the paper's scenario
// is a knowledge-graph service answering user keyword queries).
//
// Endpoints:
//
//	GET /query?q=kw1,kw2&algo=blinks&k=10[&direct=1][&layer=m]
//	    evaluate a keyword query; free-text keywords are resolved through
//	    the text index. Returns matches with label names and the plan.
//	GET /explain?q=kw1,kw2&algo=blinks
//	    the evaluation plan only (cost model output, no search).
//	GET /complete?prefix=har&limit=10
//	    keyword autocompletion over the label vocabulary (limit 1..100).
//	GET /stats
//	    graph + index statistics.
//	GET /metrics
//	    Prometheus text exposition (request counters, latency histograms,
//	    per-phase query timings, index/build gauges).
//	GET /healthz
//	    liveness.
//	GET /readyz
//	    readiness; 503 while the server is draining for shutdown.
//
// /query also accepts &trace=1, which embeds the query's span tree (layer
// selection → summary search → per-layer specialization → generation) in
// the response as "trace", and &timeout=, a per-request deadline clamped
// under Options.QueryTimeout. When the deadline expires mid-evaluation the
// response is still 200 with "degraded": true and the (sound but possibly
// incomplete) matches found so far — specialization only refines
// already-found generalized answers (Prop 5.2), so a prefix of the answer
// set is never wrong, just short.
//
// Query results are cached (internal/qcache): repeats of a query are
// answered without evaluating, concurrent identical queries share one
// evaluation (singleflight), and "cached": true marks a response served
// from the cache. Keywords are canonicalized (sorted, deduplicated)
// before the cache key is built, so "b,a,a" and "a,b" are one query.
// &nocache=1 bypasses the cache for a single request. Entries key on
// the index epoch, so a Refresh invalidates the whole cache implicitly;
// degraded (partial) results are never stored.
//
// The server is read-only and safe for concurrent requests: evaluators
// serialize index preparation internally and everything else is immutable.
// Requests are wrapped in a robustness layer (see robust.go): a
// load-shedding gate on /query, panic containment, and a drain-aware
// readiness endpoint.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/ontology"
	"bigindex/internal/qcache"
	"bigindex/internal/search"
	"bigindex/internal/search/bidir"
	"bigindex/internal/search/bkws"
	"bigindex/internal/search/blinks"
	"bigindex/internal/search/rclique"
	"bigindex/internal/shard"
	"bigindex/internal/shardrpc"
	"bigindex/internal/text"
)

// Options configures the server.
type Options struct {
	// DMax is the distance bound used by rooted algorithms (r-clique uses
	// DMax-1 as its pairwise bound).
	DMax int
	// BlockSize is the target block size of the shard plan that splits the
	// data graph among shardrpc peers (with ShardClient).
	BlockSize int
	// MaxK bounds the top-k a client may request (0 = 100): /query
	// answers a k outside 1..MaxK with 400, and Warm rejects the line.
	MaxK int
	// Metrics is the registry served at /metrics. Nil creates a private
	// one; pass the registry used for core.Build to expose build gauges
	// alongside the serving metrics.
	Metrics *obs.Registry
	// Logger receives one structured line per request plus the slow-query
	// log. Nil discards.
	Logger *slog.Logger
	// SlowQuery is the latency threshold for the slow-query log
	// (0 = 500ms; negative disables).
	SlowQuery time.Duration
	// QueryTimeout is the per-request evaluation deadline. A &timeout=
	// parameter may shorten it but never exceed it. On expiry the query
	// degrades to the partial answers found so far instead of failing.
	// 0 disables the server-imposed deadline (client timeouts still apply).
	QueryTimeout time.Duration
	// MaxInFlight caps concurrently evaluating /query requests; excess
	// requests wait up to ShedWait for a slot and are then shed with
	// 429 + Retry-After. 0 disables load shedding.
	MaxInFlight int
	// ShedWait is the bounded wait for an evaluation slot when MaxInFlight
	// is hit (0 = 100ms; negative = shed immediately).
	ShedWait time.Duration
	// ExtraAlgorithms registers additional search semantics by name,
	// resolved before the built-in set. Entries sharing a built-in name
	// shadow it; a "blinks" entry also runs for requests without &algo=,
	// since an absent algorithm names blinks. Used for custom plug-ins and
	// fault-injection tests.
	ExtraAlgorithms map[string]search.Algorithm
	// Cache sizes the /query result cache (internal/qcache): hits skip
	// evaluation entirely, and concurrent identical queries share one
	// evaluation. The zero value enables a default-sized cache; set
	// Cache.Size < 0 to disable caching.
	Cache CacheOptions
	// Debug configures the flight recorder and the /debug endpoints. The
	// recorder itself is always on (tail sampling is cheap: keep/drop is
	// decided per query at query end); the endpoints exposing it are
	// default-off.
	Debug DebugOptions
	// AdminToken, when non-empty, gates every /admin/* endpoint behind a
	// shared secret ("Authorization: Bearer <token>" or "X-Admin-Token"),
	// compared in constant time. Empty leaves the admin surface open
	// (trusted-network deployments).
	AdminToken string
	// ShardClient, when non-nil, runs bkws and bidir searches on the data
	// graph through a fleet of shardrpc peers (bigindexd's -shard-peers):
	// the shard.Coordinator expands layer 0 on the peers round by round,
	// one Expand frame per replica set per round.
	// Every other search runs the sequential algorithm in process: summary
	// layers, and a data graph the peers do not serve (a mutation swap
	// changed its digest). When every replica of a block is unreachable
	// past budget the query completes over the surviving blocks and
	// returns degraded with a coverage annotation; such results are never
	// cached.
	ShardClient *shardrpc.Client
	// Shards is the coordinator's worker count over ShardClient: how many
	// bidir verification chunks and answer witnesses it works on at once
	// (a round's expansion is one call whatever the count). It is read
	// only when ShardClient is set; values below 1 mean 1.
	Shards int
}

// DebugOptions configures the flight recorder (obs.Recorder) and its
// debug endpoints.
type DebugOptions struct {
	// Endpoints enables GET /debug/traces, /debug/traces/{id},
	// /debug/active, and /debug/index. Default off: stored traces carry
	// query contents, which an operator opts into exposing.
	Endpoints bool
	// Sample is the recorder's uniform keep probability for unremarkable
	// queries (0 = 0.01). Negative disables the recorder entirely —
	// the overhead-ablation baseline.
	Sample float64
	// StoreSize is the trace ring capacity (0 = 512).
	StoreSize int
	// KeepSlowest is K, the slowest-per-window retention (0 = 8).
	KeepSlowest int
}

// CacheOptions sizes the query result cache.
type CacheOptions struct {
	// Size caps cached results (0 = 4096; negative disables caching).
	Size int
	// TTL expires entries by age (0 = 60s; negative = no TTL). The TTL
	// bounds staleness only against out-of-band mutations; index
	// refreshes invalidate instantly via the epoch in the cache key.
	TTL time.Duration
	// Bytes bounds the cache's estimated memory footprint
	// (0 = 64 MiB; negative = unbounded).
	Bytes int64
}

// indexState bundles everything derived from one version of the index:
// the index itself, the text index over its data graph, and the shared
// evaluators (which cache per-layer prepared indexes). An applied mutation
// batch swaps the whole bundle atomically (SwapIndex), so a request that
// loaded the state at entry sees one consistent version end to end; the
// old bundle stays valid for requests still holding it and is
// garbage-collected when they finish.
type indexState struct {
	idx *core.Index
	tix *text.Index
	// plans holds the shard plan of this version's data graph, built on
	// first use (the first search routed to the peers, or /debug/index);
	// no other graph is ever planned. Tying the cache to the bundle is
	// what gives sharded queries epoch consistency under index swaps: a
	// request resolves its graph and its plan through the one bundle it
	// loaded at entry, so a concurrent SwapIndex can never mix a new graph
	// with an old partition (or vice versa) inside one query.
	plans *shard.PlanCache
	mu    sync.Mutex
	evs   map[string]*core.Evaluator
}

// Server handles HTTP requests against one index.
type Server struct {
	state    atomic.Pointer[indexState]
	ont      *ontology.Ontology
	opt      Options
	mux      *http.ServeMux
	handler  http.Handler
	boot     time.Time
	sem      chan struct{}           // load-shedding slots (nil = unbounded)
	draining atomic.Bool             // readiness flips to 503 during shutdown drain
	cache    *qcache.Cache           // query result cache (nil = disabled)
	mutator  atomic.Pointer[Mutator] // set by SetMutator; nil = /admin/edges disabled
	recorder *obs.Recorder           // flight recorder (nil = disabled)
	audit    *costAudit              // Formula 4 calibration audit (costmodel.go)
	shardMet *shard.Metrics          // shard query/task/portal/round metrics

	reg       *obs.Registry
	cacheSec  *obs.HistogramVec // end-to-end /query latency by cache outcome
	phaseSec  *obs.HistogramVec // query phase latency, labeled by Breakdown phase
	querySec  *obs.HistogramVec // end-to-end evaluation latency by algorithm/mode
	matches   *obs.CounterVec   // matches returned by algorithm
	cancelled *obs.CounterVec   // interrupted queries, by reason (deadline/client)
	degraded  *obs.Counter      // 200s with partial results after a deadline
	shardLoss *obs.CounterVec   // 200s degraded by unreachable shard replicas, by failing peer
	coverage  *obs.Histogram    // block-coverage fraction of shard-degraded queries
	shed      *obs.Counter      // 429s from the load-shedding gate
	panics    *obs.Counter      // handler panics contained by recoverPanics
	inflightQ *obs.Gauge        // queries currently evaluating

	// Paper-phase counters fed from core.Breakdown after each evaluation.
	layerChosen *obs.CounterVec // queries by algo and evaluated layer (Formula 4 outcome)
	prop41      *obs.CounterVec // Prop 4.1 label-filter candidates, by result
	topkStops   *obs.CounterVec // top-k early terminations, by kind
	genChecks   *obs.CounterVec // Def 4.2/4.3 qualification checks, by kind and result
	specFanout  *obs.Histogram  // candidates per layer-descent step

	// Index-shape gauges, re-set on every index swap.
	idxLayers *obs.Gauge
	idxSize   *obs.Gauge
	gVerts    *obs.Gauge
	gEdges    *obs.Gauge
}

// knownPaths bounds the path label cardinality of the HTTP metrics.
var knownPaths = map[string]bool{
	"/query": true, "/explain": true, "/complete": true,
	"/stats": true, "/metrics": true, "/healthz": true, "/readyz": true,
	"/admin/edges": true, "/admin/compact": true,
	"/debug/traces": true, "/debug/active": true, "/debug/index": true,
	"/debug/costmodel": true, "/debug/fleet": true,
}

// New creates a server over a built index.
func New(idx *core.Index, ont *ontology.Ontology, opt Options) *Server {
	if opt.DMax < 1 {
		opt.DMax = 4
	}
	if opt.BlockSize < 1 {
		opt.BlockSize = 200
	}
	if opt.MaxK <= 0 {
		opt.MaxK = 100
	}
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	if opt.Logger == nil {
		opt.Logger = obs.DiscardLogger()
	}
	switch {
	case opt.SlowQuery == 0:
		opt.SlowQuery = 500 * time.Millisecond
	case opt.SlowQuery < 0:
		opt.SlowQuery = 0
	}
	switch {
	case opt.ShedWait == 0:
		opt.ShedWait = 100 * time.Millisecond
	case opt.ShedWait < 0:
		opt.ShedWait = 0
	}
	s := &Server{
		ont:  ont,
		opt:  opt,
		mux:  http.NewServeMux(),
		boot: time.Now(),
		reg:  opt.Metrics,
	}
	s.shardMet = shard.NewMetrics(s.reg)
	s.state.Store(s.newIndexState(idx))
	if opt.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opt.MaxInFlight)
	}
	if opt.Cache.Size >= 0 {
		co := qcache.Options{
			MaxEntries: opt.Cache.Size,
			TTL:        opt.Cache.TTL,
			MaxBytes:   opt.Cache.Bytes,
			Obs:        s.reg,
		}
		switch {
		case co.TTL == 0:
			co.TTL = time.Minute
		case co.TTL < 0:
			co.TTL = 0
		}
		switch {
		case co.MaxBytes == 0:
			co.MaxBytes = 64 << 20
		case co.MaxBytes < 0:
			co.MaxBytes = 0
		}
		s.cache = qcache.New(co)
	}
	s.cacheSec = s.reg.HistogramVec("bigindex_query_cache_seconds",
		"End-to-end /query latency in seconds by cache outcome (hit, miss, shared, bypass).",
		nil, "outcome")
	s.phaseSec = s.reg.HistogramVec("bigindex_query_phase_seconds",
		"Query evaluation phase latency in seconds (the paper's Figs. 10-14 axes).",
		nil, "phase")
	s.querySec = s.reg.HistogramVec("bigindex_query_seconds",
		"End-to-end query evaluation latency in seconds.", nil, "algo", "mode")
	s.matches = s.reg.CounterVec("bigindex_query_matches_total",
		"Final answers returned.", "algo")
	s.cancelled = s.reg.CounterVec("bigindex_query_cancelled_total",
		"Queries interrupted before completion, by reason (deadline, client).", "reason")
	s.degraded = s.reg.Counter("bigindex_query_degraded_total",
		"Queries that returned partial results after their deadline expired.")
	s.shardLoss = s.reg.CounterVec("bigindex_query_shard_degraded_total",
		"Queries that completed over surviving shard blocks after replica loss, by the peer blamed for the loss (\"unknown\" when the transport reported none).",
		"peer")
	s.coverage = s.reg.Histogram("bigindex_query_coverage_fraction",
		"Block-coverage fraction of shard-degraded queries (1.0 = all blocks reached).",
		[]float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1})
	s.shed = s.reg.Counter("bigindex_query_shed_total",
		"Queries rejected with 429 by the load-shedding gate.")
	s.panics = s.reg.Counter("bigindex_panic_recovered_total",
		"Handler panics contained by the recovery middleware.")
	s.inflightQ = s.reg.Gauge("bigindex_queries_inflight",
		"Queries currently being evaluated (admitted past the shedding gate).")
	if opt.Debug.Sample >= 0 {
		s.recorder = obs.NewRecorder(obs.RecorderOptions{
			Sample:      opt.Debug.Sample,
			StoreSize:   opt.Debug.StoreSize,
			KeepSlowest: opt.Debug.KeepSlowest,
			Metrics:     s.reg,
		})
	}
	s.layerChosen = s.reg.CounterVec("bigindex_query_layer_total",
		"Queries by algorithm and the layer the cost model evaluated them at (Formula 4).",
		"algo", "layer")
	s.prop41 = s.reg.CounterVec("bigindex_prop41_candidates_total",
		"Specialization candidates examined by the Prop 4.1 label filter, by result (kept, filtered).",
		"result")
	s.topkStops = s.reg.CounterVec("bigindex_topk_stops_total",
		"Top-k early terminations by kind: earlyk (Sec. 4.3.4 first-k), bound (Prop 5.2 score bound), generate (inside a generation session).",
		"kind")
	s.genChecks = s.reg.CounterVec("bigindex_gen_checks_total",
		"Answer-generation qualification checks by kind (vertex = Def 4.2 / Algo 3, path = Def 4.3 / Algo 4) and result (qualified, rejected).",
		"kind", "result")
	s.specFanout = s.reg.Histogram("bigindex_spec_fanout",
		"Candidates emerging from each specialization layer-descent step.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384})
	s.audit = newCostAudit(s.reg)
	s.idxLayers = s.reg.Gauge("bigindex_index_layers", "Summary layers in the served index (h).")
	s.idxSize = s.reg.Gauge("bigindex_index_size", "BiG-index size (sum of summary graph sizes).")
	s.gVerts = s.reg.Gauge("bigindex_graph_vertices", "Data graph vertices.")
	s.gEdges = s.reg.Gauge("bigindex_graph_edges", "Data graph edges.")
	s.setIndexGauges(idx)

	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/complete", s.handleComplete)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/admin/edges", s.adminOnly(s.handleAdminEdges))
	s.mux.HandleFunc("/admin/compact", s.adminOnly(s.handleAdminCompact))
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.Handle("/metrics", s.reg.Handler())
	if opt.Debug.Endpoints {
		s.mux.HandleFunc("/debug/traces", s.handleDebugTraces)
		s.mux.HandleFunc("/debug/traces/", s.handleDebugTraceByID)
		s.mux.HandleFunc("/debug/active", s.handleDebugActive)
		s.mux.HandleFunc("/debug/index", s.handleDebugIndex)
		s.mux.HandleFunc("/debug/costmodel", s.handleDebugCostmodel)
		s.mux.HandleFunc("/debug/fleet", s.handleDebugFleet)
	}
	s.handler = obs.Instrument(s.recoverPanics(s.mux), obs.HTTPOptions{
		Registry:  s.reg,
		Logger:    opt.Logger,
		SlowQuery: opt.SlowQuery,
		Normalize: func(r *http.Request) string {
			if knownPaths[r.URL.Path] {
				return r.URL.Path
			}
			if strings.HasPrefix(r.URL.Path, "/debug/traces/") {
				return "/debug/traces/{id}"
			}
			return "other"
		},
	})
	return s
}

// ServeHTTP implements http.Handler (through the obs middleware: request
// metrics, per-request trace, request log).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Metrics returns the server's registry (for tests and embedding).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// newIndexState derives a fresh bundle from an index version. It is a
// method because the bundle's shard plan cache inherits the server's
// partition options.
//
// The text index depends only on the dictionary and on which of its
// labels occur in the data graph, so it carries over from the served
// bundle when both are unchanged — always after an edge-only mutation
// batch.
func (s *Server) newIndexState(idx *core.Index) *indexState {
	g := idx.Data()
	var tix *text.Index
	if cur := s.state.Load(); cur != nil && sameLabels(cur.idx.Data(), g) {
		tix = cur.tix
	} else {
		tix = text.NewIndex(g.Dict(), g)
	}
	return &indexState{
		idx:   idx,
		tix:   tix,
		plans: shard.NewPlanCache(shard.Options{BlockSize: s.opt.BlockSize}),
		evs:   map[string]*core.Evaluator{},
	}
}

// sameLabels reports whether a and b share a dictionary and the set of
// labels that occur on their vertices.
func sameLabels(a, b *graph.Graph) bool {
	return a.Dict() == b.Dict() && a.SameLabelSet(b)
}

// st returns the current index state; handlers load it once at entry so a
// concurrent swap cannot mix two index versions within one request.
func (s *Server) st() *indexState { return s.state.Load() }

// Index returns the currently served index.
func (s *Server) Index() *core.Index { return s.st().idx }

// SwapIndex atomically replaces the served index with a new version (the
// mutation service's one write path, after each applied batch): the
// text index and evaluator pool are rebuilt against it, the index-shape
// gauges are re-set, and subsequent requests see only the new bundle.
// In-flight requests finish against the version they started with — both
// are internally consistent, and the result cache cannot bleed between
// them because its keys embed the index epoch, which the new version has
// bumped. The server's own epoch-keyed caching makes an explicit cache
// flush unnecessary (and racy: a flush could evict entries a concurrent
// old-epoch request just stored, or keep ones it stores after).
func (s *Server) SwapIndex(idx *core.Index) {
	s.state.Store(s.newIndexState(idx))
	s.setIndexGauges(idx)
}

func (s *Server) setIndexGauges(idx *core.Index) {
	s.idxLayers.Set(float64(idx.NumLayers() - 1))
	s.idxSize.Set(float64(idx.TotalSize()))
	s.gVerts.Set(float64(idx.Data().NumVertices()))
	s.gEdges.Set(float64(idx.Data().NumEdges()))
}

// SetMutator wires a Mutator into the server: /admin/edges and
// /admin/compact start delegating to it and /stats reports its state.
// Called once at startup (NewMutator does it for you).
func (s *Server) SetMutator(m *Mutator) { s.mutator.Store(m) }

// algorithm resolves a canonical name (see parseRequest) to the search
// algorithm an evaluator over st runs. An ExtraAlgorithms entry wins,
// even over a built-in name, and is used as is: a plug-in's semantics are
// unknown, so it never goes to the shard peers.
func (s *Server) algorithm(st *indexState, name string) (search.Algorithm, error) {
	if a, ok := s.opt.ExtraAlgorithms[name]; ok {
		return a, nil
	}
	switch name {
	case "blinks":
		return blinks.New(blinks.Options{DMax: s.opt.DMax}), nil
	case "bkws":
		return s.onFleet(st, bkws.New(s.opt.DMax), bkws.NewSharded), nil
	case "bidir":
		return s.onFleet(st, bidir.New(s.opt.DMax), bidir.NewSharded), nil
	case "rclique":
		return rclique.New(max(1, s.opt.DMax-1)), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

// onFleet returns seq unchanged on a server without a ShardClient, and
// otherwise wraps it so that searches on st's data graph go to the peers.
func (s *Server) onFleet(st *indexState, seq search.Algorithm,
	sharded func(int, shard.Options) search.Algorithm) search.Algorithm {
	c := s.opt.ShardClient
	if c == nil {
		return seq
	}
	return &fleetAlgorithm{
		Algorithm: seq,
		sharded: sharded(s.opt.DMax, shard.Options{
			Workers:   s.opt.Shards,
			BlockSize: s.opt.BlockSize,
			Cache:     st.plans,
			Server:    c.For,
			Metrics:   s.shardMet,
		}),
		data:   st.idx.Data(),
		plans:  st.plans,
		client: c,
	}
}

// fleetAlgorithm prepares the shard coordinator for the data graph when
// the peers serve its plan, and the embedded sequential algorithm for
// every other graph. Both answer byte-identically (DESIGN.md §9.2), so
// the choice changes where the work runs, never the result.
type fleetAlgorithm struct {
	search.Algorithm // sequential bkws or bidir
	sharded          search.Algorithm
	data             *graph.Graph
	plans            *shard.PlanCache
	client           *shardrpc.Client
}

// Prepare implements search.Algorithm.
func (a *fleetAlgorithm) Prepare(g *graph.Graph) (search.Prepared, error) {
	if g == a.data && a.client.ServesPlan(a.plans.For(g)) {
		return a.sharded.Prepare(g)
	}
	return a.Algorithm.Prepare(g)
}

// evaluator returns (creating on first use) the shared evaluator for a
// canonical algorithm name against one index version; evaluators cache
// per-layer prepared indexes across requests. Evaluators are shared
// across requests with different k values, so their options never encode
// a per-request k (mutating them would race with in-flight queries):
// non-rclique evaluators run exhaustively (K=0) and evalQuery truncates
// to the request's k at result time; rclique pins K to the server-wide
// MaxK cap, which every request k is clamped under.
func (s *Server) evaluator(st *indexState, name string) (*core.Evaluator, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ev, ok := st.evs[name]
	if !ok {
		algo, err := s.algorithm(st, name)
		if err != nil {
			return nil, err
		}
		opt := core.DefaultEvalOptions()
		if name == "rclique" {
			opt.K = s.opt.MaxK
			opt.EarlyK = true
			opt.GenLimit = 40
			opt.DegreeExponent = 3
			opt.GenBudget = 2_000_000
		} else {
			opt.DegreeExponent = 1
		}
		ev = core.NewEvaluator(st.idx, algo, opt)
		st.evs[name] = ev
	}
	return ev, nil
}

// coverageJSON is the response's view of a shard-degraded query: which
// plan blocks were reached, overall and per resolved keyword (the
// collector tracks keyword positions; the server maps them back to
// names). It appears only alongside "degraded":true, reason "shards".
type coverageJSON struct {
	BlocksTotal     int                `json:"blocks_total"`
	BlocksLost      int                `json:"blocks_lost"`
	LostBlocks      []int              `json:"lost_blocks,omitempty"`
	Fraction        float64            `json:"fraction"`
	PerKeyword      map[string]float64 `json:"per_keyword,omitempty"`
	RootsUnverified int                `json:"roots_unverified,omitempty"`
	// FailedPeers names the shard peer addresses every replica attempt
	// failed against — the operator's "which process do I go restart".
	FailedPeers []string `json:"failed_peers,omitempty"`
}

type matchJSON struct {
	Root  string   `json:"root"`
	Nodes []string `json:"nodes"`
	Dists []int    `json:"dists,omitempty"`
	Score float64  `json:"score"`
}

// cachedResult is one query's evaluation outcome as it flows through
// the result cache: the matches, the layer they were evaluated at, and
// whether the evaluation was cut short by its deadline. Degraded
// results are shared with concurrent identical queries (they were going
// to share the same interrupted evaluation anyway) but never stored —
// a later query with a healthy deadline must recompute the full answer.
type cachedResult struct {
	matches  []search.Match
	layer    int
	degraded string                // non-empty = degradation reason ("deadline", "shards")
	coverage *shard.CoverageReport // non-nil = shard replica loss; what was reached
}

// approxResultBytes estimates a result's heap footprint for the cache's
// byte budget: slice headers plus per-match vertex and distance
// payloads. An estimate is fine — the budget bounds order of magnitude,
// not accounting truth.
func approxResultBytes(ms []search.Match) int64 {
	n := int64(64) // entry + slice header overhead; floor for negative entries
	for i := range ms {
		n += 48 + 8*int64(len(ms[i].Nodes)) + 8*int64(len(ms[i].Dists))
	}
	return n
}

// evalQuery runs one uncached evaluation (the body the cache wraps):
// direct baseline eval or hierarchical eval at a pinned/auto layer,
// with per-phase latency metrics and the per-request k applied at
// result time (shared evaluators run exhaustively; see evaluator()).
func (s *Server) evalQuery(ctx context.Context, req request) (cachedResult, error) {
	// A fresh coverage collector rides the context into the shard
	// coordinator (like obs.Ledger): a lossy sharded run records what it
	// abandoned, and the report marks the result degraded-by-shards.
	// Singleflight followers share the leader's context, so they see the
	// same report. Unsharded runs never touch it and the report stays nil.
	cov := shard.NewCoverage()
	ctx = shard.ContextWithCoverage(ctx, cov)
	if req.direct {
		ms, err := req.ev.DirectCtx(ctx, req.q, req.k)
		return withCoverage(cachedResult{matches: ms}, cov), err
	}
	ms, bd, err := req.ev.EvalLayerCtx(ctx, req.q, req.layer)
	layer := 0
	if bd != nil {
		layer = bd.Layer
		s.phaseSec.With("select").Observe(bd.Select.Seconds())
		s.phaseSec.With("search").Observe(bd.Search.Seconds())
		s.phaseSec.With("specialize").Observe(bd.Specialize.Seconds())
		s.phaseSec.With("generate").Observe(bd.Generate.Seconds())
		s.observeBreakdown(req.algo, bd)
		if err == nil {
			s.auditCost(req, bd, obs.LedgerFromContext(ctx))
		}
	}
	return withCoverage(cachedResult{matches: search.Truncate(ms, req.k), layer: layer}, cov), err
}

// withCoverage folds a shard coverage collector into the result: any
// recorded loss marks the result degraded ("shards"), which keeps it out
// of the result cache — the answer is sound for the covered subgraph but
// incomplete, and a later query must see the full graph again.
func withCoverage(cr cachedResult, cov *shard.Coverage) cachedResult {
	if rep := cov.Report(); rep != nil {
		cr.coverage = rep
		if cr.degraded == "" {
			cr.degraded = "shards"
		}
	}
	return cr
}

// observeBreakdown exports the Breakdown's paper-phase counters so metrics
// speak the paper's vocabulary (Formula 4 / Prop 4.1 / Defs 4.2-4.3 /
// Sec. 4.3.4); see DESIGN.md for the mapping.
func (s *Server) observeBreakdown(algo string, bd *core.Breakdown) {
	s.layerChosen.With(algo, strconv.Itoa(bd.Layer)).Inc()
	s.prop41.With("kept").Add(int64(bd.Prop41Checked - bd.Prop41Filtered))
	s.prop41.With("filtered").Add(int64(bd.Prop41Filtered))
	s.topkStops.With("earlyk").Add(int64(bd.EarlyStops))
	s.topkStops.With("bound").Add(int64(bd.BoundStops))
	s.topkStops.With("generate").Add(bd.Gen.EarlyKStops)
	s.genChecks.With("vertex", "qualified").Add(bd.Gen.VertexQualified)
	s.genChecks.With("vertex", "rejected").Add(bd.Gen.VertexChecks - bd.Gen.VertexQualified)
	s.genChecks.With("path", "qualified").Add(bd.Gen.PathQualified)
	s.genChecks.With("path", "rejected").Add(bd.Gen.PathChecks - bd.Gen.PathQualified)
	for _, f := range bd.SpecFanout {
		s.specFanout.Observe(float64(f))
	}
}

// runQuery answers one query through the result cache: a cache hit
// skips evaluation, concurrent identical queries collapse onto one
// evaluation (singleflight), and &nocache=1 or a disabled cache bypass
// both. A deadline expiry inside the evaluation comes back as a
// degraded cachedResult with a nil error; other errors pass through.
func (s *Server) runQuery(ctx context.Context, st *indexState, req request) (cachedResult, qcache.Outcome, error) {
	compute := func(cctx context.Context) (qcache.Result, error) {
		cr, err := s.evalQuery(cctx, req)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				cr.degraded = "deadline"
				return qcache.Result{V: cr, Store: false}, nil
			}
			return qcache.Result{}, err
		}
		return qcache.Result{
			V:        cr,
			Bytes:    approxResultBytes(cr.matches),
			Store:    cr.degraded == "", // shard-degraded results are shared, never stored
			Negative: len(cr.matches) == 0,
		}, nil
	}
	if req.nocache || s.cache == nil {
		res, err := compute(ctx)
		cr, _ := res.V.(cachedResult)
		return cr, qcache.Bypass, err
	}
	epoch := st.idx.Epoch()
	key := req.key(epoch)
	// The Cache span is a leaf beside the evaluation spans: it records the
	// lookup outcome while Select/Search/... stay children of the root.
	sp := obs.SpanFromContext(ctx).StartChild("Cache")
	v, outcome, err := s.cache.Do(ctx, epoch, key, func() (qcache.Result, error) {
		return compute(ctx)
	})
	sp.SetAttr("outcome", string(outcome)).End()
	if err != nil && outcome == qcache.Shared && errors.Is(err, context.Canceled) && ctx.Err() == nil {
		// The singleflight leader's client vanished and took the shared
		// evaluation down with it; this request's client is still
		// waiting, so evaluate independently instead of failing.
		res, err2 := compute(ctx)
		cr, _ := res.V.(cachedResult)
		return cr, qcache.Bypass, err2
	}
	cr, _ := v.(cachedResult)
	return cr, outcome, err
}

// Warm pre-populates the result cache by evaluating workload queries
// through the same parse and cached path /query uses (bigindexd's
// -warm-file). Each entry is "kw1,kw2[ | algo[ | k]]", read as the
// parameters q, algo and k — fields are |-separated because keywords
// themselves may contain spaces; blank lines and #-comments are skipped.
// Only ctx bounds a warm query: the sweep runs before any client does.
// Returns how many queries were warmed; per-query failures are joined
// into the returned error without stopping the sweep.
func (s *Server) Warm(ctx context.Context, queries []string) (int, error) {
	if s.cache == nil {
		return 0, fmt.Errorf("query cache is disabled")
	}
	st := s.st()
	warmed := 0
	var errs []error
	for _, line := range queries {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		fields := strings.Split(line, "|")
		vals := url.Values{}
		for i, name := range []string{"q", "algo", "k"} {
			if i < len(fields) {
				vals.Set(name, strings.TrimSpace(fields[i]))
			}
		}
		req, err := s.parseRequest(st, vals)
		var cr cachedResult
		if err == nil {
			cr, _, err = s.runQuery(ctx, st, req)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("warm %q: %w", line, err))
			continue
		}
		if cr.degraded != "" {
			errs = append(errs, fmt.Errorf("warm %q: degraded (%s), not cached", line, cr.degraded))
			continue
		}
		warmed++
	}
	return warmed, errors.Join(errs...)
}

// Cache returns the server's result cache (nil when disabled); tests
// and embedding daemons use it for introspection.
func (s *Server) Cache() *qcache.Cache { return s.cache }

type queryResponse struct {
	Query     []string        `json:"query"`
	Algorithm string          `json:"algorithm"`
	Layer     int             `json:"layer"`
	Direct    bool            `json:"direct,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Elapsed   string          `json:"elapsed"`
	Count     int             `json:"count"`
	Degraded  bool            `json:"degraded,omitempty"`
	Reason    string          `json:"degraded_reason,omitempty"`
	Coverage  *coverageJSON   `json:"coverage,omitempty"`
	Matches   []matchJSON     `json:"matches"`
	Notes     []string        `json:"notes,omitempty"`
	Trace     json.RawMessage `json:"trace,omitempty"`
}

// handleQuery serves /query: parse → admit → run → finish → render. The
// request is parsed before the load-shedding gate, so a malformed one is
// answered 400 without waiting for a slot, and the gate, the live
// registry, the cache and the recorder all see the same request.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	st := s.st() // one consistent index version for the whole request
	req, err := s.parseRequest(st, r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	// Register with the flight recorder's live registry before the gate: a
	// query stuck waiting for a slot is exactly the kind /debug/active
	// must surface.
	tok := s.recorder.Begin(obs.SpanFromContext(ctx).Trace(), req.algo, req.raw)
	defer s.recorder.End(tok)
	start := time.Now()
	release, err := s.admit(ctx)
	if err != nil {
		s.finish(ctx, w, req, &cachedResult{}, err, time.Since(start), nil)
		return
	}
	defer release()

	if req.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.timeout)
		defer cancel()
	}
	// Per-query resource ledger: the search algorithms, specialization, and
	// generation all find it through the context and charge their work to
	// it; the snapshot rides on the retained trace and feeds the Formula 4
	// calibration audit.
	led := obs.NewLedger()
	ctx = obs.ContextWithLedger(ctx, led)
	obs.AddLogAttrs(ctx,
		slog.String("query", req.raw),
		slog.String("algo", req.algo),
		slog.Int("k", req.k),
		slog.String("mode", req.mode()))

	start = time.Now()
	cr, outcome, err := s.runQuery(ctx, st, req)
	elapsed := time.Since(start)
	if !s.finish(ctx, w, req, &cr, err, elapsed, led.Snapshot()) {
		return
	}
	// Exemplar: the latency bucket remembers this query's trace ID, so a
	// spike in the exposition cross-links to /debug/traces/{id}.
	tr := obs.SpanFromContext(ctx).Trace()
	s.querySec.With(req.algo, req.mode()).ObserveExemplar(elapsed.Seconds(), tr.ID())
	s.cacheSec.With(string(outcome)).Observe(elapsed.Seconds())
	s.matches.With(req.algo).Add(int64(len(cr.matches)))
	obs.AddLogAttrs(ctx, slog.Int("layer", cr.layer), slog.Int("count", len(cr.matches)),
		slog.String("cache", string(outcome)))
	writeJSON(w, render(st, req, cr, outcome == qcache.Hit, elapsed, tr))
}

// finish is the one place a /query ends. It maps the query's end state —
// ok, degraded (deadline or shards), cancelled, error or shed — to its
// outcome counters and to the flight recorder's single Finish call, whose
// tail sampling always retains every state but ok. It writes the error
// response of the states without an answer and reports whether the
// caller renders one (ok and degraded). cost is nil for a query the gate
// turned away.
func (s *Server) finish(ctx context.Context, w http.ResponseWriter, req request, cr *cachedResult,
	err error, dur time.Duration, cost *obs.LedgerSnapshot) bool {
	end, code := "ok", http.StatusOK
	switch {
	case errors.Is(err, errShed):
		end, code = "shed", http.StatusTooManyRequests
		s.shed.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		// The deadline expired while waiting on another query's in-flight
		// evaluation: there are no partials of our own, so degrade to an
		// empty (sound, trivially incomplete) answer set.
		cr.degraded = "deadline"
	case errors.Is(err, context.Canceled):
		// The client went away; nothing will read the response.
		end, code = "cancelled", statusClientClosedRequest
		err = fmt.Errorf("client closed request")
		s.cancelled.With("client").Inc()
	case err != nil:
		end, code = "error", http.StatusInternalServerError
	}
	if end == "ok" && cr.degraded != "" {
		end = "degraded"
		if cr.degraded == "shards" {
			// Replica loss: the answer is sound for the covered subgraph
			// (the coordinator stops settling at the first lossy level) but
			// some blocks went unreached — the coverage block says which,
			// and the metric says which peer(s) to go look at.
			peers := []string{"unknown"}
			if cr.coverage != nil && len(cr.coverage.FailedPeers) > 0 {
				peers = cr.coverage.FailedPeers
			}
			for _, peer := range peers {
				s.shardLoss.With(peer).Inc()
			}
			if cr.coverage != nil {
				s.coverage.Observe(cr.coverage.Fraction)
			}
		} else {
			// Deadline expiry mid-evaluation degrades to the partial answers
			// rather than failing. Every returned match is verified (Prop 5.2
			// keeps the prefix sound); the set is just short.
			s.cancelled.With("deadline").Inc()
		}
		s.degraded.Inc()
		obs.AddLogAttrs(ctx, slog.Bool("degraded", true))
	}
	s.recorder.Finish(obs.SpanFromContext(ctx).Trace(), req.algo, req.raw, end, dur, cost)
	if code == http.StatusOK {
		return true
	}
	if end == "shed" {
		w.Header().Set("Retry-After", "1")
	}
	httpError(w, code, err)
	return false
}

// render builds /query's response body for an answered query.
func render(st *indexState, req request, cr cachedResult, cached bool, elapsed time.Duration, tr *obs.Trace) queryResponse {
	g := st.idx.Data()
	dict := g.Dict()
	resp := queryResponse{
		Algorithm: req.algo,
		Layer:     cr.layer,
		Direct:    req.direct,
		Cached:    cached,
		Elapsed:   elapsed.Round(time.Microsecond).String(),
		Count:     len(cr.matches),
		Degraded:  cr.degraded != "",
		Reason:    cr.degraded,
		Notes:     req.notes,
	}
	if cr.coverage != nil {
		cov := &coverageJSON{
			BlocksTotal:     cr.coverage.BlocksTotal,
			BlocksLost:      cr.coverage.BlocksLost,
			LostBlocks:      cr.coverage.LostBlocks,
			Fraction:        cr.coverage.Fraction,
			RootsUnverified: cr.coverage.RootsUnverified,
			FailedPeers:     cr.coverage.FailedPeers,
		}
		if len(cr.coverage.PerKeyword) > 0 {
			cov.PerKeyword = make(map[string]float64, len(cr.coverage.PerKeyword))
			for i, f := range cr.coverage.PerKeyword {
				if i < len(req.q) {
					cov.PerKeyword[dict.Name(req.q[i])] = f
				}
			}
		}
		resp.Coverage = cov
	}
	if req.trace && tr != nil {
		if js, err := json.Marshal(tr); err == nil {
			resp.Trace = js
		}
	}
	for _, l := range req.q {
		resp.Query = append(resp.Query, dict.Name(l))
	}
	for _, m := range cr.matches {
		mj := matchJSON{Root: dict.Name(g.Label(m.Root)), Score: m.Score, Dists: m.Dists}
		for _, n := range m.Nodes {
			mj.Nodes = append(mj.Nodes, dict.Name(g.Label(n)))
		}
		resp.Matches = append(resp.Matches, mj)
	}
	return resp
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	req, err := s.parseRequest(st, r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	plan := req.ev.ExplainCtx(r.Context(), req.q)
	dict := st.idx.Data().Dict()
	type layerJSON struct {
		Layer       int      `json:"layer"`
		Cost        float64  `json:"cost"`
		Legal       bool     `json:"legal"`
		Generalized []string `json:"generalized"`
	}
	out := struct {
		Chosen int         `json:"chosen_layer"`
		Layers []layerJSON `json:"layers"`
		Notes  []string    `json:"notes,omitempty"`
	}{Chosen: plan.Layer, Notes: req.notes}
	for m, row := range plan.Costs {
		lj := layerJSON{Layer: m, Cost: plan.Costs.Cost(m, plan.Beta), Legal: row.Legal}
		for _, l := range row.Gen {
			name, _ := dict.NameOK(l)
			lj.Generalized = append(lj.Generalized, name)
		}
		out.Layers = append(out.Layers, lj)
	}
	writeJSON(w, out)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	prefix := vals.Get("prefix")
	limit, err := intParam(vals, "limit", 10)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if limit < 1 || limit > 100 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("parameter limit=%d out of range (1..100)", limit))
		return
	}
	st := s.st()
	dict := st.idx.Data().Dict()
	var names []string
	for _, l := range st.tix.Prefix(prefix, limit) {
		names = append(names, dict.Name(l))
	}
	writeJSON(w, struct {
		Prefix      string   `json:"prefix"`
		Completions []string `json:"completions"`
	}{prefix, names})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	g := st.idx.Data()
	gs := graph.ComputeStats(g)
	type cacheJSON struct {
		Entries int64 `json:"entries"`
		Bytes   int64 `json:"bytes"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Shared  int64 `json:"shared"`
	}
	type mutationJSON struct {
		Seq       uint64 `json:"seq"`
		WALBytes  int64  `json:"wal_bytes"`
		LastApply string `json:"last_apply,omitempty"`
	}
	// The shard block reads the data graph's plan through Peek: it exists
	// only after the first search routed to the peers (or /debug/index)
	// against this index version, and /stats must observe, not trigger,
	// the one-off planning cost.
	type shardJSON struct {
		Planned bool `json:"planned"`
		Blocks  int  `json:"blocks,omitempty"`
		EdgeCut int  `json:"edge_cut,omitempty"`
		// Remote-serving state (-shard-peers): per-peer health and the
		// worst-case block coverage a query started now could see.
		// CoverageFloor is a pointer so 0.0 — total outage — still renders.
		Remote        bool                  `json:"remote,omitempty"`
		CoverageFloor *float64              `json:"coverage_floor,omitempty"`
		Peers         []shardrpc.PeerHealth `json:"peers,omitempty"`
	}
	out := struct {
		Graph    graph.Stats        `json:"graph"`
		Layers   []core.LayerStats  `json:"layers"`
		Epoch    uint64             `json:"epoch"`
		Cache    *cacheJSON         `json:"cache,omitempty"`
		Mutation *mutationJSON      `json:"mutation,omitempty"`
		Recorder *obs.RecorderStats `json:"recorder,omitempty"`
		Shard    shardJSON          `json:"shard"`
		Uptime   string             `json:"uptime"`
	}{Graph: gs, Layers: st.idx.Stats().Layers, Epoch: st.idx.Epoch(),
		Uptime: time.Since(s.boot).Round(time.Second).String()}
	if p := st.plans.Peek(g); p != nil {
		out.Shard.Planned = true
		out.Shard.Blocks = p.NumBlocks()
		out.Shard.EdgeCut = p.EdgeCut()
	}
	if c := s.opt.ShardClient; c != nil {
		out.Shard.Remote = true
		floor := c.CoverageFloor()
		out.Shard.CoverageFloor = &floor
		out.Shard.Peers = c.Health()
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		out.Cache = &cacheJSON{cs.Entries, cs.Bytes, cs.Hits, cs.Misses, cs.Shared}
	}
	if s.recorder != nil {
		occ := s.recorder.Occupancy()
		out.Recorder = &occ
	}
	if mut := s.mutator.Load(); mut != nil {
		h := mut.Health()
		mj := &mutationJSON{Seq: h.Seq, WALBytes: h.WALBytes}
		if !h.LastApply.IsZero() {
			mj.LastApply = h.LastApply.UTC().Format(time.RFC3339)
		}
		out.Mutation = mj
	}
	writeJSON(w, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// writeJSON encodes to a buffer before touching the ResponseWriter: a
// mid-encode failure must not emit an implicit 200 followed by a
// half-written body and a second WriteHeader — it becomes a clean 500.
func writeJSON(w http.ResponseWriter, v interface{}) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
