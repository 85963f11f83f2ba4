package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/search"
	"bigindex/internal/snapshot"
	"bigindex/internal/wal"
)

// env is what every run shares.
type env struct {
	clients int     // closed-loop callers; GOMAXPROCS is set to the same value
	outDir  string  // traces, reports and temp files go here
	seconds float64 // how long one run measures; passes and repetition counts scale with it
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, traced or not.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Traced       bool              `json:"traced"`
	InputsDigest string            `json:"inputs_digest"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"ops_attempted"`
	Failed       int               `json:"ops_failed"`
	Samples      int               `json:"samples"` // timed /query latencies behind the percentiles
	Counts       map[string]int    `json:"op_counts"`
	Metrics      map[string]metric `json:"metrics"`
	Notes        []string          `json:"notes,omitempty"`
	WallS        float64           `json:"wall_s"`

	spans []span // traced runs: kept for the tree check in bench_test.go
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records failed operations; the first message of each kind is kept.
func (r *result) fail(n int, what string) {
	if n > 0 {
		r.Failed += n
		r.note("%d failed: %s", n, what)
	}
}

// buildIndex turns a seed into the inputs and the index a stack serves:
// generate, core.Build, and for a Restored workload a snapshot round trip
// through a file.
func buildIndex(sp spec, seed int64, dir string) (in *inputs, built, served *core.Index, buildDur time.Duration, err error) {
	if in, err = genInputs(sp, seed); err != nil {
		return nil, nil, nil, 0, err
	}
	buildDur = timed(func() {
		built, err = core.Build(in.DS.Graph, in.DS.Ont, core.DefaultBuildOptions())
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	served = built
	if sp.Restored {
		path := filepath.Join(dir, "boot.snap")
		if err = os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, nil, 0, err
		}
		if err = snapshot.SaveFile(path, built, snapshot.Meta{}); err != nil {
			return nil, nil, nil, 0, err
		}
		if served, _, err = snapshot.LoadFile(path, in.DS.Ont); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	return in, built, served, buildDur, nil
}

// bootStack starts the stack and primes it through the listener with the
// first pool entries, so the first Prepare of every algorithm in the mix
// is part of set-up, as it is for an operator.
func bootStack(sp spec, in *inputs, idx *core.Index, dir string, tr *tracer, ev env) (*stack, error) {
	st, err := newStack(sp, idx, dir, tr)
	if err != nil {
		return nil, err
	}
	prime := make([]int32, min(len(in.Pool), 128))
	for i := range prime {
		prime[i] = int32(i)
	}
	rs := readOnce(st, in, prime, ev.clients, false)
	if rs.Failed > 0 {
		st.close()
		return nil, fmt.Errorf("priming %s: %d of %d requests failed: %s", sp.Name, rs.Failed, rs.Attempted, rs.FirstErr)
	}
	return st, nil
}

// gate is the correctness gate: for every pool entry the hierarchical
// answer at the routed layer must equal direct evaluation on layer 0
// (sorted by score then Match.Key, top-k). The oracle's digest is stored
// on the entry; every timed response must reproduce it. The evaluators it
// used are returned for the probes of a traced run.
func gate(in *inputs, idx *core.Index, workers int) (evs map[string]*core.Evaluator, failed int, first string) {
	evs = make(map[string]*core.Evaluator)
	for _, name := range allAlgos {
		evs[name] = newEvaluator(idx, newAlgo(name))
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	ctx := context.Background()
	data := idx.Data()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.Pool) {
					return
				}
				e := &in.Pool[i]
				ev := evs[e.Algo]
				hier, bd, err := ev.EvalLayerCtx(ctx, e.Labels, -1)
				var direct []search.Match
				if err == nil {
					direct, err = oracle(ctx, ev, e)
				}
				hier = search.Truncate(hier, topK)
				bad := ""
				switch {
				case err != nil:
					bad = err.Error()
				case !sameMatches(hier, direct):
					bad = fmt.Sprintf("layer %d answer differs from layer 0", bd.Layer)
				default:
					e.Digest = digestMatches(data, direct)
				}
				if bad != "" {
					mu.Lock()
					failed++
					if first == "" {
						first = e.URL + ": " + bad
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return evs, failed, first
}

// oracle is direct evaluation on layer 0: exhaustive, then ranked and cut
// to k, so ties at the k-th score break by Match.Key on both sides.
func oracle(ctx context.Context, ev *core.Evaluator, e *poolEntry) ([]search.Match, error) {
	ms, err := ev.DirectCtx(ctx, e.Labels, 0)
	if err != nil {
		return nil, err
	}
	search.SortMatches(ms)
	return search.Truncate(ms, topK), nil
}

func sameMatches(a, b []search.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Score != b[i].Score || a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// verifyServed checks, after mutations, that the served index answers the
// first pool entries exactly as direct evaluation on its own final data
// graph does.
func verifyServed(st *stack, in *inputs, ev env) (attempted, failed int, first string) {
	final := st.srv.Index()
	check := *in
	check.Pool = append([]poolEntry(nil), in.Pool[:min(len(in.Pool), 64)]...)
	evs := make(map[string]*core.Evaluator)
	for i := range check.Pool {
		e := &check.Pool[i]
		if evs[e.Algo] == nil {
			evs[e.Algo] = newEvaluator(final, newAlgo(e.Algo))
		}
		ms, err := oracle(context.Background(), evs[e.Algo], e)
		if err != nil {
			return 1, 1, err.Error()
		}
		e.Digest = digestMatches(final.Data(), ms)
	}
	sched := make([]int32, len(check.Pool))
	for i := range sched {
		sched[i] = int32(i)
	}
	rs := readOnce(st, &check, sched, ev.clients, true)
	return rs.Attempted, rs.Failed, rs.FirstErr
}

// heapMiB is the live heap after two collections.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mib(m.HeapAlloc)
}

// scaled turns a repetition count calibrated for -seconds = 10 into the
// count for this run, never below floor.
func (ev env) scaled(n, floor int) int {
	return max(floor, int(math.Round(float64(n)*ev.seconds/10)))
}

// writerInterval is the paced writer's period: 500 ms at full length.
func (ev env) writerInterval() time.Duration {
	d := time.Duration(ev.seconds / 10 * float64(500*time.Millisecond))
	return max(50*time.Millisecond, min(d, 500*time.Millisecond))
}

// serve runs the workload's traffic against a primed stack: one untimed
// cycle of the schedule (fills the result cache, the prepared indexes and
// the connections), then the timed read pass of `dur`, with the paced
// writer beside it for a Writer workload.
func serve(st *stack, in *inputs, sp spec, dur time.Duration, tr *tracer, ev env, res *result) (readStats, writeStats) {
	warm := readOnce(st, in, in.Sched, ev.clients, true)
	res.Attempted += warm.Attempted
	res.fail(warm.Failed, "warm-up: "+warm.FirstErr)

	var ws writeStats
	until := time.Now().Add(dur)
	var wg sync.WaitGroup
	if sp.Writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws = writePass(st, in.Batches, ev.writerInterval(), 0, until)
		}()
	}
	tr.enable(true)
	rs := readPass(st, in, in.Sched, ev.clients, 0, until, !sp.Writer, tr)
	tr.enable(false)
	wg.Wait()
	res.Attempted += rs.Attempted
	res.fail(rs.Failed, "/query: "+rs.FirstErr)
	return rs, ws
}

// mutateAfter posts the unloaded batches of a non-Writer workload and
// runs the post-mutation checks of every workload: the served index must
// answer like direct evaluation on its final graph, and reopening the WAL
// must replay exactly the acknowledged batches.
func mutateAfter(st *stack, in *inputs, sp spec, ws *writeStats, ev env, res *result) {
	if !sp.Writer {
		*ws = writePass(st, in.Batches, 0, ev.scaled(sp.Batches, 3), time.Time{})
	}
	res.Attempted += ws.Attempted
	res.fail(ws.Failed, "/admin/edges: "+ws.FirstErr)
	res.Counts["mutation_batches"] = ws.Attempted

	a, f, msg := verifyServed(st, in, ev)
	res.Attempted += a
	res.fail(f, "after mutation: "+msg)

	base := st.idx.Data().Digest()
	st.close()
	log, info, err := wal.Open(st.walPath, wal.Options{BaseDigest: base})
	if err != nil {
		res.fail(1, "reopening the WAL: "+err.Error())
		return
	}
	_ = log.Close() // read-only reopen; nothing to flush
	if got, want := len(info.Batches), ws.Attempted-ws.Failed; got != want {
		res.fail(1, fmt.Sprintf("WAL replays %d batches, %d were acknowledged", got, want))
	}
}

// runWorkload runs one workload once. Untraced, it reports the end-to-end
// metrics; traced, the per-layer metrics. Tracing never feeds an
// end-to-end number.
func runWorkload(sp spec, seed int64, traced bool, ev env) (*result, error) {
	t0 := time.Now()
	res := &result{Workload: sp.Name, Seed: seed, Traced: traced,
		Counts: map[string]int{}, Metrics: map[string]metric{}}
	if err := os.MkdirAll(ev.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(ev.outDir, "tmp-"+sp.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if traced {
		err = runTraced(sp, seed, dir, ev, res)
	} else {
		err = runUntraced(sp, seed, dir, ev, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.Name, err)
	}
	res.Correct = res.Failed == 0
	res.Attempted = max(res.Attempted, 1)
	res.WallS = time.Since(t0).Seconds()
	return res, nil
}

func runUntraced(sp spec, seed int64, dir string, ev env, res *result) error {
	// Set-up is repeated from scratch and its median reported: a single
	// boot is too short to time steadily.
	const boots = 3
	var (
		in          *inputs
		built, idx  *core.Index
		st          *stack
		setups, bds []time.Duration
	)
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for i := 0; i < boots; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		bootDir := filepath.Join(dir, fmt.Sprintf("boot%d", i))
		t0 := time.Now()
		var bd time.Duration
		var err error
		if in, built, idx, bd, err = buildIndex(sp, seed, bootDir); err != nil {
			return err
		}
		if st, err = bootStack(sp, in, idx, bootDir, nil, ev); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		bds = append(bds, bd)
		if i == 0 {
			// Taken after the first boot: a server that has answered one
			// /query keeps its data graph reachable after it is closed and
			// dropped (seen on the seed commit), and the later boots must
			// not count the earlier ones' graphs as resident index.
			res.set("index_heap_mb", heapMiB(), "MiB")
		}
	}
	res.InputsDigest = fmt.Sprintf("%016x", in.Digest)
	res.set("setup_s", median(setups).Seconds(), "s")

	// build_s: the boots' builds plus enough more to reach the count.
	for n := ev.scaled(sp.Builds, boots); len(bds) < n; {
		var err error
		bds = append(bds, timed(func() {
			_, err = core.Build(in.DS.Graph, in.DS.Ont, core.DefaultBuildOptions())
		}))
		if err != nil {
			return err
		}
	}
	res.Counts["builds"] = len(bds)
	res.set("build_s", median(bds).Seconds(), "s")

	loads, err := restore(built, in, dir, ev.scaled(sp.Loads, 3), res)
	if err != nil {
		return err
	}
	res.Counts["loads"] = len(loads)
	res.set("restore_s", median(loads).Seconds(), "s")

	_, failed, first := gate(in, idx, ev.clients)
	res.Attempted += len(in.Pool)
	res.fail(failed, "gate: "+first)

	dur := time.Duration(ev.seconds * sp.ReadShare * float64(time.Second))
	rs, ws := serve(st, in, sp, dur, nil, ev, res)
	mutateAfter(st, in, sp, &ws, ev, res)

	res.Samples = len(rs.Lat)
	res.Counts["queries"] = rs.Attempted
	res.Counts["clients"] = ev.clients
	res.set("query_p50_ms", ms(percentile(rs.Lat, 0.5)), "ms")
	res.set("query_qps", float64(len(rs.Lat))/rs.Elapsed.Seconds(), "1/s")
	res.set("mutate_p50_ms", ms(median(ws.Lat)), "ms")
	return nil
}

// restore saves the built index once and times snapshot.LoadFile n times.
// The first load is compared with the built index layer by layer.
func restore(built *core.Index, in *inputs, dir string, n int, res *result) ([]time.Duration, error) {
	path := filepath.Join(dir, "restore.snap")
	if err := snapshot.SaveFile(path, built, snapshot.Meta{}); err != nil {
		return nil, err
	}
	var loads []time.Duration
	for i := 0; i < n; i++ {
		var loaded *core.Index
		var err error
		loads = append(loads, timed(func() { loaded, _, err = snapshot.LoadFile(path, in.DS.Ont) }))
		if err != nil {
			return nil, err
		}
		if i > 0 {
			continue
		}
		res.Attempted++
		same := loaded.NumLayers() == built.NumLayers()
		for m := 0; same && m < built.NumLayers(); m++ {
			same = loaded.LayerGraph(m).Digest() == built.LayerGraph(m).Digest()
		}
		if !same {
			res.fail(1, "restored index differs from the built one")
		}
	}
	return loads, nil
}
