package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"bigindex/internal/bisim"
	"bigindex/internal/core"
	"bigindex/internal/cost"
	"bigindex/internal/generalize"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/qcache"
	"bigindex/internal/sampling"
	"bigindex/internal/search"
	"bigindex/internal/search/rclique"
	"bigindex/internal/shard"
	"bigindex/internal/snapshot"
	"bigindex/internal/text"
	"bigindex/internal/wal"
)

// The probes time calls into each package's exported functions, single
// threaded, on the workload's own inputs. They read what those calls
// return (core.Breakdown, obs.LedgerSnapshot, core.DeltaReport) and add
// nothing to the program.

// subset is the pool prefix the per-algorithm probes run over; the pool's
// order makes every prefix span light and heavy queries evenly.
func subset(in *inputs, n int) []poolEntry { return in.Pool[:min(len(in.Pool), n)] }

func medianUS(d []time.Duration) float64 { return us(median(d)) }

// probeQueryPath measures the read path below the handler: text, cost,
// core, search. evs are the gate's evaluators, which already hold the
// prepared index of every layer the pool routes to.
func probeQueryPath(in *inputs, idx *core.Index, evs map[string]*core.Evaluator, res *result) error {
	ctx := context.Background()
	data := idx.Data()
	pool := in.Pool
	n := float64(len(pool))

	tix := text.NewIndex(data.Dict(), data)
	var resolve, route []time.Duration
	layer0 := 0
	for i := range pool {
		e := &pool[i]
		var err error
		resolve = append(resolve, timed(func() { _, _, err = tix.Resolve(e.Names, data) }))
		if err != nil {
			return err
		}
		var best int
		route = append(route, timed(func() { best, _ = cost.OptimalLayerEx(idx, e.Labels, 0.5, 1) }))
		if best == 0 {
			layer0++
		}
	}
	res.set("text.resolve_us", medianUS(resolve), "us")
	res.set("cost.route_us", medianUS(route), "us")
	res.set("cost.route_layer0_frac", float64(layer0)/n, "ratio")

	// Per algorithm, over the same pool prefix: hierarchical evaluation,
	// and the bare layer-0 search under it.
	sub := subset(in, 32)
	for _, name := range allAlgos {
		var prep search.Prepared
		var err error
		prepDur := timed(func() { prep, err = newAlgo(name).Prepare(data) })
		if err != nil {
			return err
		}
		if name == "blinks" {
			res.set("search.prepare_ms.blinks", ms(prepDur), "ms")
		}
		var evalD, searchD []time.Duration
		for i := range sub {
			e := &sub[i]
			evalD = append(evalD, timed(func() { _, _, err = evs[name].EvalLayerCtx(ctx, e.Labels, -1) }))
			if err != nil {
				return err
			}
			searchD = append(searchD, timed(func() { _, err = prep.SearchCtx(ctx, e.Labels, topK) }))
			if err != nil {
				return err
			}
		}
		res.set("core.eval_us."+name, medianUS(evalD), "us")
		res.set("search.search_us."+name, medianUS(searchD), "us")
	}

	// The whole pool once, each entry under its assigned algorithm, with a
	// ledger in the context: phase times from the returned Breakdown,
	// exact work counts from the ledger, allocations from the runtime.
	var (
		sel, srch, spec, gen, srchL0, srchUp, direct []time.Duration
		work, expanded, p41c, p41f, genChk, genOK    int64
		peaks                                        []int64
	)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range pool {
		e := &pool[i]
		led := obs.NewLedger()
		_, bd, err := evs[e.Algo].EvalLayerCtx(obs.ContextWithLedger(ctx, led), e.Labels, -1)
		if err != nil {
			return err
		}
		snap := led.Snapshot()
		sel, srch = append(sel, bd.Select), append(srch, bd.Search)
		spec, gen = append(spec, bd.Specialize), append(gen, bd.Generate)
		if bd.Layer == 0 {
			srchL0 = append(srchL0, bd.Search)
		} else {
			srchUp = append(srchUp, bd.Search)
		}
		work += snap.WorkUnits
		expanded += snap.Expanded
		peaks = append(peaks, snap.FrontierPeak)
		p41c += int64(bd.Prop41Checked)
		p41f += int64(bd.Prop41Filtered)
		genChk += bd.Gen.VertexChecks + bd.Gen.PathChecks
		genOK += bd.Gen.VertexQualified + bd.Gen.PathQualified
	}
	runtime.ReadMemStats(&m1)
	for i := range subset(in, 64) {
		e := &pool[i]
		var err error
		direct = append(direct, timed(func() { _, err = evs[e.Algo].DirectCtx(ctx, e.Labels, topK) }))
		if err != nil {
			return err
		}
	}
	res.set("core.direct_us", medianUS(direct), "us")
	res.set("core.select_us", medianUS(sel), "us")
	res.set("core.search_us", medianUS(srch), "us")
	res.set("core.specialize_us", medianUS(spec), "us")
	res.set("core.generate_us", medianUS(gen), "us")
	res.set("core.search_us.L0", medianUS(srchL0), "us")
	res.set("core.search_us.Lge1", medianUS(srchUp), "us") // 0 when nothing routes above layer 0
	res.set("core.work_units_per_query", float64(work)/n, "count")
	res.set("core.vertices_expanded_per_query", float64(expanded)/n, "count")
	res.set("core.frontier_peak_p99", float64(percentile(peaks, 0.99)), "count")
	res.set("core.prop41_filtered_frac", ratio(p41f, p41c), "ratio")
	res.set("core.gen_checks_per_query", float64(genChk)/n, "count")
	res.set("core.gen_qualified_frac", ratio(genOK, genChk), "ratio")
	res.set("core.allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	res.set("core.bytes_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B")
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeRClique times r-clique, which no timed mix includes (its multi-
// second tails make a p99 unrepeatable), on a small graph of its own.
func probeRClique(seed int64, entities int, res *result) error {
	in, err := genInputs(spec{Name: "rclique", Entities: entities, Algos: []string{"rclique"}, Pool: 32, MaxShare: 50, Sched: 32}, seed)
	if err != nil {
		return err
	}
	prep, err := rclique.New(dmax - 1).Prepare(in.DS.Graph)
	if err != nil {
		return err
	}
	var d []time.Duration
	timeouts := 0
	budget := time.Now().Add(4 * time.Second)
	for i := range in.Pool {
		if time.Now().After(budget) {
			break
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		var err error
		d = append(d, timed(func() { _, err = prep.SearchCtx(ctx, in.Pool[i].Labels, topK) }))
		if ctx.Err() != nil {
			timeouts++
		} else if err != nil {
			cancel()
			return err
		}
		cancel()
	}
	res.set("search.search_us.rclique", medianUS(d), "us")
	res.set("search.rclique_timeouts", float64(timeouts), "count")
	return nil
}

// probeCache times the result cache's three operations with a no-op
// compute, on the workload's own cache keys.
func probeCache(in *inputs, res *result) {
	c := qcache.New(qcache.Options{MaxEntries: 2 * len(in.Pool)})
	keys := make([]string, len(in.Pool))
	for i, e := range in.Pool {
		keys[i] = qcache.Key(e.Algo, false, e.Labels, topK, -1, 0)
	}
	const rounds = 20
	ops := float64(rounds * len(keys))
	perOp := func(fn func(i int, key string)) float64 {
		d := timed(func() {
			for r := 0; r < rounds; r++ {
				for i, k := range keys {
					fn(r*len(keys)+i, k)
				}
			}
		})
		return float64(d) / ops
	}
	res.set("qcache.put_ns", perOp(func(i int, k string) {
		c.Put(k, 0, qcache.Result{V: i, Bytes: 256, Store: true})
	}), "ns")
	res.set("qcache.get_hit_ns", perOp(func(_ int, k string) { c.Get(k) }), "ns")
	ctx := context.Background()
	noop := func() (qcache.Result, error) { return qcache.Result{}, nil } // Store false: never cached
	res.set("qcache.do_miss_ns", perOp(func(i int, k string) {
		_, _, _ = c.Do(ctx, 0, k+"#"+strconv.Itoa(i), noop) // the no-op compute cannot fail
	}), "ns")
}

// probeShard runs the level-synchronous coordinator over the data graph
// twice through the same tap: against shard.Local in process, and against
// two loopback shardrpc servers. The in-process run is the RPC-free
// reference the network overhead ratio is taken against.
func probeShard(in *inputs, idx *core.Index, ev env, res *result) error {
	data := idx.Data()
	pc := shard.NewPlanCache(shard.Options{BlockSize: blockSize})
	var plan *shard.Plan
	res.set("shard.plan_ms", ms(timed(func() { plan = pc.For(data) })), "ms")
	res.set("shard.blocks", float64(plan.NumBlocks()), "count")

	sub := subset(in, 32)
	n := float64(len(sub))
	// run searches the entries (even ones bkws, odd ones bidir) through a
	// fresh tap over srv.
	run := func(srv shard.ShardServer, layer string, entries []poolEntry) (*shardTap, []time.Duration, [][]search.Match, error) {
		tap := &shardTap{inner: srv, layer: layer}
		preps := make([]search.Prepared, 2)
		for m, mode := range []shard.Mode{shard.ModeBKWS, shard.ModeBidir} {
			p, err := shard.New(mode, dmax, shard.Options{Workers: min(2, ev.clients), BlockSize: blockSize,
				Cache: pc, Server: func(*shard.Plan) shard.ShardServer { return tap }}).Prepare(data)
			if err != nil {
				return nil, nil, nil, err
			}
			preps[m] = p
		}
		var searches []time.Duration
		var answers [][]search.Match
		for i := range entries {
			cov := shard.NewCoverage()
			ctx := shard.ContextWithCoverage(context.Background(), cov)
			var got []search.Match
			var err error
			tap.beginQuery()
			searches = append(searches, timed(func() { got, err = preps[i%2].SearchCtx(ctx, entries[i].Labels, topK) }))
			tap.endQuery()
			if err != nil {
				return nil, nil, nil, err
			}
			if cov.Report() != nil {
				return nil, nil, nil, fmt.Errorf("%s search lost coverage on a healthy fleet", layer)
			}
			answers = append(answers, got)
		}
		return tap, searches, answers, nil
	}

	local, localD, localA, err := run(shard.NewLocal(plan), "shard", sub)
	if err != nil {
		return err
	}
	res.set("shard.expand_us", medianUS(local.expands), "us")
	res.set("shard.search_inproc_us", medianUS(localD), "us")
	res.set("shard.rounds_per_query", float64(local.rounds)/n, "count")
	res.set("shard.expands_per_query", float64(len(local.expands))/n, "count")

	f, err := startFleet(plan)
	if err != nil {
		return err
	}
	defer f.close()
	bound := f.client.For(plan)
	if _, _, _, err := run(bound, "shardrpc", sub[:min(4, len(sub))]); err != nil { // opens the connections
		return err
	}
	wire0 := f.wireBytes()
	remote, remoteD, remoteA, err := run(bound, "shardrpc", sub)
	if err != nil {
		return err
	}
	res.Attempted += len(sub)
	for i := range sub {
		if !sameMatches(localA[i], remoteA[i]) {
			res.fail(1, "networked shard search differs from in-process: "+sub[i].URL)
		}
	}
	res.set("shardrpc.expand_us", medianUS(remote.expands), "us")
	res.set("shardrpc.rpcs_per_query", float64(remote.calls)/n, "count")
	res.set("shardrpc.bytes_per_query", float64(f.wireBytes()-wire0)/n, "B")
	res.set("shardrpc.retries", float64(f.metrics.Retries.Value()), "count")
	res.set("shardrpc.hedges", float64(f.metrics.Hedges.With("won").Value()+f.metrics.Hedges.With("lost").Value()), "count")
	res.set("shardrpc.net_overhead_ratio", medianUS(remoteD)/max(medianUS(localD), 1e-9), "ratio")
	return nil
}

// probeBuild re-runs, layer by layer, each exported call core.Build makes,
// on the exact inputs Build used: layer j is configured from layer j-1's
// graph with Search.Seed + j. Their sum should land near one Build.
func probeBuild(in *inputs, built *core.Index, res *result) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var again *core.Index
	var err error
	buildDur := timed(func() { again, err = core.Build(in.DS.Graph, in.DS.Ont, core.DefaultBuildOptions()) })
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	res.set("core.build_alloc_mb", mib(m1.TotalAlloc-m0.TotalAlloc), "MiB")
	res.set("core.index_size_ratio", float64(again.TotalSize())/float64(again.Data().Size()), "ratio")
	res.set("core.layers", float64(again.NumLayers()-1), "count")

	var greedy, estimator, apply, compute, computeL1 time.Duration
	var bisimAlloc uint64
	opt := core.DefaultBuildOptions()
	for j := 1; j <= built.NumLayers(); j++ {
		// j == NumLayers is the attempt Build made and then abandoned.
		if j > opt.MaxLayers {
			break
		}
		g := built.LayerGraph(j - 1)
		so := opt.Search
		so.Seed += int64(j)
		estimator += timed(func() { sampling.NewEstimator(g, so.SampleRadius, so.SampleCount, so.Seed) })
		var tried *generalize.Config
		greedy += timed(func() { tried, _ = cost.GreedyConfig(g, in.DS.Ont, so) })
		if j < built.NumLayers() {
			tried = built.Configs()[j-1]
		}
		if tried.Len() == 0 {
			break
		}
		var gen *graph.Graph
		apply += timed(func() { gen = tried.Apply(g) })
		runtime.ReadMemStats(&m0)
		d := timed(func() { bisim.Compute(gen) })
		runtime.ReadMemStats(&m1)
		bisimAlloc += m1.TotalAlloc - m0.TotalAlloc
		compute += d
		if j == 1 {
			computeL1 = d
		}
	}
	res.set("cost.greedy_config_ms", ms(greedy), "ms")
	res.set("sampling.estimator_ms", ms(estimator), "ms") // also inside greedy_config_ms
	res.set("generalize.apply_ms", ms(apply), "ms")
	res.set("bisim.compute_ms", ms(compute), "ms")
	res.set("bisim.compute_l1_ms", ms(computeL1), "ms")
	res.set("bisim.alloc_mb", mib(bisimAlloc), "MiB")
	if sum := greedy + apply + compute; float64(sum) < 0.85*float64(buildDur) || float64(sum) > 1.15*float64(buildDur) {
		res.note("build-side layers sum to %.0f ms, core.Build took %.0f ms: outside 15 %%", ms(sum), ms(buildDur))
	}

	// The scaling shape behind build_s: the same build at a half and a
	// quarter of the workload's size.
	for _, f := range []struct {
		name string
		div  int
	}{{"half", 2}, {"quarter", 4}} {
		ds := genDataset(in.DS.Graph.NumVertices() / f.div)
		d := timed(func() { _, err = core.Build(ds.Graph, ds.Ont, core.DefaultBuildOptions()) })
		if err != nil {
			return err
		}
		res.set("core.build_ms."+f.name, ms(d), "ms")
	}
	return nil
}

// probeMutation times what one /admin/edges batch costs below the
// handler: the WAL append with its fsync, graph.Patch, Index.Applied.
func probeMutation(in *inputs, idx *core.Index, dir string, res *result) error {
	batches := in.Batches[:4]
	path := filepath.Join(dir, "probe.wal")
	log, _, err := wal.Open(path, wal.Options{BaseDigest: idx.Data().Digest()})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer log.Close()
	size0 := log.Size()
	var appendD, patchD, appliedD []time.Duration
	recomputed := 0
	cur := idx
	for i, b := range batches {
		appendD = append(appendD, timed(func() {
			err = log.Append(wal.Batch{Seq: uint64(i + 1), AddEdges: b.Add, RemoveEdges: b.Remove})
		}))
		if err != nil {
			return err
		}
		patchD = append(patchD, timed(func() { _, err = graph.Patch(cur.Data(), nil, b.Add, b.Remove) }))
		if err != nil {
			return err
		}
		var next *core.Index
		var rep *core.DeltaReport
		appliedD = append(appliedD, timed(func() {
			next, rep, err = cur.Applied(core.Delta{AddEdges: b.Add, RemoveEdges: b.Remove}, core.DeltaOptions{})
		}))
		if err != nil {
			return err
		}
		recomputed += rep.RecomputedLayers
		cur = next
	}
	n := float64(len(batches))
	res.set("wal.append_us", medianUS(appendD), "us")
	res.set("wal.bytes_per_batch", float64(log.Size()-size0)/n, "B")
	res.set("graph.patch_ms", ms(median(patchD)), "ms")
	res.set("core.applied_ms", ms(median(appliedD)), "ms")
	res.set("core.applied_recomputed_layers", float64(recomputed)/n, "count")
	return nil
}

// probeSnapshot times the codec alone, over a buffer: no file, no fsync.
func probeSnapshot(in *inputs, built *core.Index, res *result) error {
	var buf bytes.Buffer
	var writeD, readD []time.Duration
	for i := 0; i < 5; i++ {
		buf.Reset()
		var err error
		writeD = append(writeD, timed(func() { err = snapshot.Write(&buf, built, snapshot.Meta{}) }))
		if err != nil {
			return err
		}
		readD = append(readD, timed(func() { _, _, err = snapshot.Read(bytes.NewReader(buf.Bytes()), in.DS.Ont) }))
		if err != nil {
			return err
		}
	}
	res.set("snapshot.write_ms", ms(median(writeD)), "ms")
	res.set("snapshot.read_ms", ms(median(readD)), "ms")
	res.set("snapshot.bytes_per_edge", float64(buf.Len())/float64(max(1, built.Data().NumEdges())), "B")
	return nil
}
