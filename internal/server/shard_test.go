package server

import (
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bigindex/internal/datagen"
	"bigindex/internal/shard"
	"bigindex/internal/shardrpc"
)

// fleetServer starts two loopback shardrpc peers splitting the blocks of
// base's data graph (0%2 / 1%2) and returns a server over base's index
// whose bkws/bidir data-graph searches go to them, built with opt plus
// the client. base itself has no client: it is the sequential reference.
func fleetServer(t *testing.T, base *Server, opt Options) *Server {
	t.Helper()
	plan := shard.NewPlanner(shard.Options{BlockSize: 64}).PlanGraph(base.Index().Data())
	var spec []string
	for i := 0; i < 2; i++ {
		blocks := fmt.Sprintf("%d%%2", i)
		owned, err := shardrpc.ParseBlocks(blocks, plan.NumBlocks())
		if err != nil {
			t.Fatal(err)
		}
		srv := shardrpc.NewServer(plan, shardrpc.ServerOptions{Blocks: owned, BlockSize: 64})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		spec = append(spec, addr.String()+"="+blocks)
	}
	peers, err := shardrpc.ParsePeers(strings.Join(spec, ";"))
	if err != nil {
		t.Fatal(err)
	}
	cl := shardrpc.NewClient(shardrpc.ClientOptions{Peers: peers, BlockSize: 64})
	t.Cleanup(cl.Close)
	opt.DMax, opt.BlockSize, opt.ShardClient = 3, 64, cl
	return New(base.Index(), base.ont, opt)
}

// fleetQueries is the query set the equality tests diff: the most popular
// keyword alone, and with the next one, at every layer of s's index, plus
// a routed and a direct evaluation.
func fleetQueries(s *Server, ds *datagen.Dataset) []string {
	terms := popularTerms(ds, 2)
	var out []string
	for _, q := range []string{terms[0], terms[0] + "," + terms[1]} {
		for _, algo := range []string{"bkws", "bidir"} {
			base := "/query?q=" + q + "&algo=" + algo + "&k=10&nocache=1"
			out = append(out, base, base+"&direct=1")
			for m := 0; m < s.Index().NumLayers(); m++ {
				out = append(out, fmt.Sprintf("%s&layer=%d", base, m))
			}
		}
	}
	return out
}

// requireSameAnswers fails unless every fleet query answers 200 on both
// servers, at the same layer, with the same JSON matches.
func requireSameAnswers(t *testing.T, fleet, seq *Server, ds *datagen.Dataset) {
	t.Helper()
	for _, path := range fleetQueries(seq, ds) {
		frec, fbody := get(t, fleet, path)
		srec, sbody := get(t, seq, path)
		if frec.Code != http.StatusOK || srec.Code != http.StatusOK {
			t.Fatalf("%s: fleet %d, sequential %d: %s", path, frec.Code, srec.Code, frec.Body.String())
		}
		if fbody["degraded"] != nil {
			t.Fatalf("%s: healthy fleet degraded: %v", path, fbody)
		}
		if fbody["layer"] != sbody["layer"] || !reflect.DeepEqual(fbody["matches"], sbody["matches"]) {
			t.Fatalf("%s: fleet and sequential answers differ\nfleet (layer %v): %v\nseq   (layer %v): %v",
				path, fbody["layer"], fbody["matches"], sbody["layer"], sbody["matches"])
		}
	}
}

// shardQueries is bigindex_shard_queries_total{algo} on s: the number of
// searches the coordinator ran on the peers.
func shardQueries(s *Server, algo string) int64 {
	return s.shardMet.Queries.With(algo).Value()
}

// TestShardAnswerEquality is the serving-layer contract: at every layer,
// routed and direct, bkws and bidir answer with the same JSON matches on
// a server whose data-graph searches go to a loopback fleet as on one
// without a fleet — same roots, scores, witness nodes and order.
func TestShardAnswerEquality(t *testing.T) {
	seq, ds := testServer(t)
	fleet := fleetServer(t, seq, Options{})
	if seq.Index().NumLayers() < 2 {
		t.Fatalf("index has %d layers; the test needs a summary layer", seq.Index().NumLayers())
	}
	requireSameAnswers(t, fleet, seq, ds)
	for _, algo := range []string{"bkws", "bidir"} {
		if shardQueries(fleet, algo) == 0 {
			t.Fatalf("no %s search reached the fleet", algo)
		}
	}
}

// TestShardStatsAndDebugIndex: summary-layer searches never plan their
// graph, so /stats reports no plan until a layer-0 search goes to the
// peers; then it reports the data graph's plan, and the plan cache holds
// that one plan. /debug/index reports the partition layout.
func TestShardStatsAndDebugIndex(t *testing.T) {
	seq, ds := testServer(t)
	s := fleetServer(t, seq, Options{Debug: DebugOptions{Endpoints: true}})
	kw := popularTerm(ds)
	st := s.st()

	shardBlock := func() map[string]interface{} {
		t.Helper()
		_, stats := get(t, s, "/stats")
		sh, _ := stats["shard"].(map[string]interface{})
		if sh == nil {
			t.Fatalf("no shard block in /stats: %v", stats)
		}
		for _, gone := range []string{"workers", "gomaxprocs", "plans"} {
			if _, ok := sh[gone]; ok {
				t.Fatalf("/stats shard block still has %q: %v", gone, sh)
			}
		}
		return sh
	}
	if sh := shardBlock(); sh["planned"] != false {
		t.Fatalf("plan exists before any query: %v", sh)
	}
	for m := 1; m < st.idx.NumLayers(); m++ {
		for _, algo := range []string{"bkws", "bidir"} {
			path := fmt.Sprintf("/query?q=%s&algo=%s&nocache=1&layer=%d", kw, algo, m)
			if rec, _ := get(t, s, path); rec.Code != http.StatusOK {
				t.Fatalf("%s: %d", path, rec.Code)
			}
		}
	}
	if sh := shardBlock(); sh["planned"] != false || st.plans.Len() != 0 {
		t.Fatalf("summary-layer searches planned a graph: %v, %d plans", sh, st.plans.Len())
	}

	if rec, _ := get(t, s, "/query?q="+kw+"&algo=bkws&nocache=1&layer=0"); rec.Code != http.StatusOK {
		t.Fatalf("layer-0 query: %d", rec.Code)
	}
	sh := shardBlock()
	plan := st.plans.Peek(st.idx.Data())
	if sh["planned"] != true || plan == nil {
		t.Fatalf("data graph not planned after a layer-0 query: %v", sh)
	}
	if b, _ := sh["blocks"].(float64); int(b) != plan.NumBlocks() {
		t.Fatalf("blocks = %v, plan has %d", sh["blocks"], plan.NumBlocks())
	}
	if sh["remote"] != true {
		t.Fatalf("shard block not remote: %v", sh)
	}
	if st.plans.Len() != 1 {
		t.Fatalf("plan cache holds %d plans, want only the data graph's", st.plans.Len())
	}

	_, dbg := get(t, s, "/debug/index")
	part, _ := dbg["partition"].(map[string]interface{})
	if part == nil {
		t.Fatalf("no partition block in /debug/index: %v", dbg)
	}
	blocks, _ := part["blocks"].(float64)
	minB, _ := part["min_block"].(float64)
	maxB, _ := part["max_block"].(float64)
	if int(blocks) != plan.NumBlocks() || minB < 1 || maxB < minB || maxB > 64 {
		t.Fatalf("implausible partition block: %v", part)
	}
	if tgt, _ := part["target_block_size"].(float64); int(tgt) != 64 {
		t.Fatalf("target_block_size = %v", part["target_block_size"])
	}
}

// TestShardMetrics: peer-served searches surface in the bigindex_shard_*
// family, labelled by algorithm alone; summary-layer searches do not.
func TestShardMetrics(t *testing.T) {
	seq, ds := testServer(t)
	s := fleetServer(t, seq, Options{})
	kw := popularTerm(ds)
	for _, path := range []string{
		"/query?q=" + kw + "&algo=bkws&nocache=1&layer=0",
		"/query?q=" + kw + "&algo=bkws&nocache=1&layer=1",
	} {
		if rec, _ := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", path, rec.Code)
		}
	}
	if n := shardQueries(s, "bkws"); n != 1 {
		t.Fatalf("bigindex_shard_queries_total{algo=bkws} = %d, want 1 (layer 0 only)", n)
	}
	rec, _ := get(t, s, "/metrics")
	text := rec.Body.String()
	for _, want := range []string{`bigindex_shard_queries_total{algo="bkws"} 1`, "bigindex_shard_tasks_total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
	for _, gone := range []string{"bigindex_shard_workers", `workers="`} {
		if strings.Contains(text, gone) {
			t.Fatalf("metrics exposition still has %q", gone)
		}
	}
}

// TestShardMutateSwapRace is the -race stress gate: bkws and bidir
// queries over a loopback fleet interleave with index swaps from two
// /admin/edges writers. A swap changes the data graph's digest, so the
// peers no longer serve it and its searches fall back to the sequential
// path; a writer's next batch can restore the digest the peers serve.
// Every query must come back 200 and never degraded (each request
// resolves graph, plan and evaluator through one atomically-loaded
// bundle). After quiescing, a last batch leaves the peers stale for
// good: the fleet server then answers like a server without a client at
// every layer, and no search reaches the peers.
func TestShardMutateSwapRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	seq, ds := testServer(t)
	s := fleetServer(t, seq, Options{})
	NewMutator(s, 0, MutatorOptions{}) // nil WAL: in-memory mutation only
	kw := popularTerm(ds)
	if rec, _ := get(t, s, "/query?q="+kw+"&algo=bkws&nocache=1&layer=0"); rec.Code != http.StatusOK ||
		shardQueries(s, "bkws") != 1 {
		t.Fatalf("fleet not in use before the churn: %d", rec.Code)
	}

	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	var failures atomic.Int32

	for _, algo := range []string{"bkws", "bidir"} {
		for _, layer := range []string{"", "&layer=0"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					rec, body := get(t, s, "/query?q="+kw+"&algo="+algo+"&k=5&nocache=1"+layer)
					if rec.Code != http.StatusOK || body["degraded"] != nil {
						failures.Add(1)
						t.Errorf("%s%s during churn: %d: %s", algo, layer, rec.Code, rec.Body.String())
						return
					}
				}
			}()
		}
	}

	// Writers: each removes and re-adds an edge picked from the graph
	// version it loaded; the other writer's batch can invalidate the pick,
	// which the admission layer rejects with a client error — that's fine,
	// only 5xx would indicate torn state.
	for _, pick := range []func(n int) int{
		func(n int) int { return n / 2 },
		func(n int) int { return n / 3 },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				es := s.Index().Data().Edges()
				e := es[pick(len(es))]
				for _, body := range []map[string]interface{}{mutationBody(nil, &e), mutationBody(&e, nil)} {
					rec, _ := postJSON(t, s, "/admin/edges", body, nil)
					if rec.Code >= 500 {
						failures.Add(1)
						t.Errorf("mutation: %d: %s", rec.Code, rec.Body.String())
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	if failures.Load() > 0 {
		t.Fatal("stress run had failures")
	}
	if s.Index().Epoch() == 0 {
		t.Fatal("no batch applied: the queries never raced a swap")
	}

	es := s.Index().Data().Edges()
	if rec, _ := postJSON(t, s, "/admin/edges", mutationBody(nil, &es[0]), nil); rec.Code != http.StatusOK {
		t.Fatalf("final removal: %d: %s", rec.Code, rec.Body.String())
	}
	if s.Index().Data().Digest() == seq.Index().Data().Digest() {
		t.Fatal("final batch left the digest the peers serve")
	}
	before := shardQueries(s, "bkws") + shardQueries(s, "bidir")
	requireSameAnswers(t, s, New(s.Index(), ds.Ont, Options{DMax: 3, BlockSize: 64}), ds)
	if after := shardQueries(s, "bkws") + shardQueries(s, "bidir"); after != before {
		t.Fatalf("%d searches went to peers serving a stale graph", after-before)
	}
}
