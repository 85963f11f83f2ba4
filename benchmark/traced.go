package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// rcliqueEntities sizes the graph r-clique is probed on; its neighbour
// index is quadratic, so it gets a small graph of its own.
func rcliqueEntities(sp spec) int { return min(sp.Entities, 8000) / 2 }

// runTraced produces the per-layer metrics. An unmodified stack first
// gives the untraced baseline and the client-side numbers too unsteady to
// gate; a second stack, with the benchmark's wrappers in every seam,
// gives the span tree; then the direct-call probes run single threaded.
func runTraced(sp spec, seed int64, dir string, ev env, res *result) error {
	in, built, idx, _, err := buildIndex(sp, seed, dir)
	if err != nil {
		return err
	}
	res.InputsDigest = fmt.Sprintf("%016x", in.Digest)
	evs, failed, first := gate(in, idx, ev.clients)
	res.Attempted += len(in.Pool)
	res.fail(failed, "gate: "+first)

	dur := time.Duration(ev.seconds * 0.25 * float64(time.Second))

	plain, err := bootStack(sp, in, idx, filepath.Join(dir, "plain"), nil, ev)
	if err != nil {
		return err
	}
	defer plain.close()
	base, ws := serve(plain, in, sp, dur, nil, ev, res)
	hitRatio, evictions := 0.0, 0.0
	if c := plain.srv.Cache(); c != nil {
		cs := c.Stats()
		hitRatio = ratio(cs.Hits, cs.Hits+cs.Misses+cs.Shared)
		// Every miss stores its result, so what is no longer resident was
		// evicted (LRU, or the epoch flush a mutation causes).
		evictions = float64(max(0, cs.Misses-cs.Entries))
	}
	mutateAfter(plain, in, sp, &ws, ev, res)
	res.set("qcache.hit_ratio", hitRatio, "ratio")
	res.set("qcache.evictions", evictions, "count")
	res.set("server.query_p99_ms", ms(percentile(base.Lat, 0.99)), "ms")
	res.set("server.query_p999_ms", ms(percentile(base.Lat, 0.999)), "ms")
	res.set("server.mutate_p99_ms", ms(percentile(ws.Lat, 0.99)), "ms")
	res.set("server.writer_late_ms_max", ms(ws.LateMax), "ms")

	tr := newTracer()
	st, err := bootStack(sp, in, idx, filepath.Join(dir, "traced"), tr, ev)
	if err != nil {
		return err
	}
	defer st.close()
	quiet := sp
	quiet.Writer = false // the oracle digests hold only while the graph stands still
	traced, _ := serve(st, in, quiet, dur, tr, ev, res)
	st.close()
	spans := tr.take()
	res.spans = spans
	res.Samples = len(traced.Lat)
	res.Counts["queries"] = base.Attempted + traced.Attempted
	res.Counts["clients"] = ev.clients
	res.Counts["spans"] = len(spans)
	if err := checkTree(spans); err != nil {
		res.fail(1, "trace is not a tree: "+err.Error())
	}
	if err := writeTrace(filepath.Join(ev.outDir, "trace-"+sp.Name+".json"),
		traceFile{Workload: sp.Name, Seed: seed, Summary: summarize(spans), Spans: spans}); err != nil {
		return err
	}
	spanMetrics(spans, res)
	res.set("server.resp_bytes_p50", float64(median(traced.Bytes)), "B")
	p50, p50t := median(base.Lat), median(traced.Lat)
	res.set("obs.trace_overhead_pct", 100*float64(p50t-p50)/float64(max(p50, 1)), "%")

	// The direct-call probes, in turn; how long each took goes in the report.
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"query_path", func() error { return probeQueryPath(in, idx, evs, res) }},
		{"rclique", func() error { return probeRClique(seed, rcliqueEntities(sp), res) }},
		{"cache", func() error { probeCache(in, res); return nil }},
		{"shard", func() error { return probeShard(in, idx, ev, res) }},
		{"build", func() error { return probeBuild(in, built, res) }},
		{"mutation", func() error { return probeMutation(in, idx, dir, res) }},
		{"snapshot", func() error { return probeSnapshot(in, built, res) }},
	} {
		var err error
		res.Counts["probe_ms."+p.name] = int(timed(func() { err = p.run() }).Milliseconds())
		if err != nil {
			return fmt.Errorf("%s probe: %w", p.name, err)
		}
	}
	return nil
}

// spanMetrics derives the handler-side numbers from the span tree:
// handler time split on the response's "cached" flag, transport as the
// request span minus its handler span, and generation time.
func spanMetrics(spans []span, res *result) {
	requests := make(map[uint64]span)
	for _, s := range spans {
		if s.Name == "request" {
			requests[s.ID] = s
		}
	}
	var hit, miss, transport, generate []time.Duration
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "server.handler":
			rq := requests[s.Parent]
			transport = append(transport, time.Duration(rq.End-rq.Start)-d)
			if rq.Tag == "hit" {
				hit = append(hit, d)
			} else {
				miss = append(miss, d)
			}
		case "search.generate":
			generate = append(generate, d)
		}
	}
	// A workload with the cache off has no hits, one that never routes
	// above layer 0 no generation: those read 0.
	res.set("server.handler_hit_us", medianUS(hit), "us")
	res.set("server.handler_miss_us", medianUS(miss), "us")
	res.set("server.transport_us", medianUS(transport), "us")
	res.set("search.generate_us", medianUS(generate), "us")
}
