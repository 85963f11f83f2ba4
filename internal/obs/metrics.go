// Package obs is the stdlib-only observability substrate of the system:
// a metrics registry with Prometheus text exposition, span-based query
// tracing carried through context.Context, and log/slog helpers with
// request-scoped attributes. Everything is safe for concurrent use and
// every metric/span method tolerates a nil receiver, so instrumented code
// needs no "is observability enabled?" branches.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram bounds in seconds, spanning
// sub-millisecond index hits to multi-second direct evaluations.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Families expose in registration order; children of a
// family expose sorted by label values, so output is deterministic.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]*labelled
	order    []string // insertion keys, sorted at exposition time
}

// labelled pairs a child metric with its label values. The values are kept
// as a slice (not re-split from the map key) so a label value containing
// the key separator byte can never shift values onto the wrong label
// names at exposition time.
type labelled struct {
	vals []string
	m    metric
}

type metric interface {
	// expose writes the sample lines for one child with the given
	// rendered label pairs (no braces).
	expose(w io.Writer, name, labels string)
}

// family lookup/registration. Re-registering the same name with the same
// type and labels returns the existing family (so independent components
// can share a metric); a conflicting re-registration panics, which is a
// programmer error on par with a duplicate flag name.
func (r *Registry) familyFor(name, help, typ string, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v (was %s%v)",
				name, typ, labels, f.typ, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with labels %v (was %v)",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...), buckets: buckets,
		children: make(map[string]*labelled),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func (f *family) child(values []string, mk func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	// Quote each value into the key: a plain separator join would let
	// values containing the separator collide into one child.
	var kb []byte
	for _, v := range values {
		kb = strconv.AppendQuote(kb, v)
	}
	key := string(kb)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.m
	}
	c := &labelled{vals: append([]string(nil), values...), m: mk()}
	f.children[key] = c
	f.order = append(f.order, key)
	return c.m
}

// renderLabels renders `k1="v1",k2="v2"` for one child's label values,
// escaping each value per the text exposition format.
func (f *family) renderLabels(vals []string) string {
	if len(f.labels) == 0 {
		return ""
	}
	parts := make([]string, len(f.labels))
	for i, l := range f.labels {
		parts[i] = l + `="` + escapeLabel(vals[i]) + `"`
	}
	return strings.Join(parts, ",")
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, newline, and double quote become \\, \n, and \". Backslash
// must be escaped first or the later replacements would double-escape
// their own output.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\n\"") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a HELP string per the text format (backslash and
// newline only; quotes are legal in help text).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0). Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) expose(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), c.Value())
}

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta with a CAS loop. Nil-safe.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) expose(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatFloat(g.Value()))
}

// funcGauge is a gauge whose value is computed at exposition time. It
// backs Registry.GaugeFunc for values that are derived rather than stored
// (e.g. seconds since the served index was last refreshed).
type funcGauge func() float64

func (g funcGauge) expose(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatFloat(g()))
}

// Histogram is a fixed-bucket latency/size histogram. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Each bucket can carry an exemplar — the trace ID of its most recent
// observation — rendered in OpenMetrics style so a latency spike in a
// bucket points straight at a stored flight-recorder trace.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Int64 // len(bounds)+1, last is +Inf
	exemplars []atomic.Pointer[Exemplar]
	sumBits   atomic.Uint64
	n         atomic.Int64
}

// Exemplar is one bucket's trace cross-link: the observed value, the trace
// that produced it, and when.
type Exemplar struct {
	TraceID string
	Value   float64
	Time    time.Time
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.observe(v)
}

// observe records v and returns the bucket index it landed in.
func (h *Histogram) observe(v float64) int {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return i
		}
	}
}

// ObserveExemplar records v and remembers traceID as the exemplar of the
// bucket v lands in (the bucket's most recent observation). An empty
// traceID degrades to a plain Observe. Nil-safe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := h.observe(v)
	if traceID == "" {
		return
	}
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, Time: time.Now()})
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns the cumulative per-bucket counts, ending with the
// +Inf bucket (== Count()).
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

func (h *Histogram) expose(w io.Writer, name, labels string) {
	cum := h.BucketCounts()
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket%s %d%s\n", name,
			braced(joinLabels(labels, `le="`+formatFloat(b)+`"`)), cum[i], h.exemplarSuffix(i))
	}
	fmt.Fprintf(w, "%s_bucket%s %d%s\n", name,
		braced(joinLabels(labels, `le="+Inf"`)), cum[len(cum)-1], h.exemplarSuffix(len(cum)-1))
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), h.Count())
}

// exemplarSuffix renders the OpenMetrics exemplar annotation for bucket i
// (` # {trace_id="…"} value timestamp`), or "" when the bucket has none.
func (h *Histogram) exemplarSuffix(i int) string {
	ex := h.exemplars[i].Load()
	if ex == nil {
		return ""
	}
	return ` # {trace_id="` + escapeLabel(ex.TraceID) + `"} ` +
		formatFloat(ex.Value) + " " +
		strconv.FormatFloat(float64(ex.Time.UnixMilli())/1000, 'f', 3, 64)
}

// Counter returns the unlabeled counter `name`, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.familyFor(name, help, "counter", nil, nil)
	return f.child(nil, func() metric { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabeled gauge `name`, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.familyFor(name, help, "gauge", nil, nil)
	return f.child(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers the unlabeled gauge `name` whose value is fn(),
// evaluated at every exposition. fn must be safe for concurrent calls.
// Registering the same name again keeps the first function. Nil-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	f := r.familyFor(name, help, "gauge", nil, nil)
	f.child(nil, func() metric { return funcGauge(fn) })
}

// Histogram returns the unlabeled histogram `name` (nil buckets =
// DefBuckets), registering it on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.familyFor(name, help, "histogram", buckets, nil)
	return f.child(nil, func() metric { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r.familyFor(name, help, "counter", nil, labels)}
}

// With returns the child counter for the given label values. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() metric { return &Counter{} }).(*Counter)
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r.familyFor(name, help, "gauge", nil, labels)}
}

// With returns the child gauge for the given label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() metric { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family (nil
// buckets = DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.familyFor(name, help, "histogram", buckets, labels)}
}

// With returns the child histogram for the given label values. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() metric { return newHistogram(v.f.buckets) }).(*Histogram)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make(map[string]*labelled, len(keys))
		for _, k := range keys {
			children[k] = f.children[k]
		}
		f.mu.Unlock()
		sort.Strings(keys)
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, k := range keys {
			c := children[k]
			c.m.expose(w, f.name, f.renderLabels(c.vals))
		}
	}
}

// Handler serves the registry at an endpoint (GET /metrics). Non-read
// methods get 405 with an Allow header.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
