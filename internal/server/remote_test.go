package server

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/shard"
	"bigindex/internal/shardrpc"
)

// remoteIndex builds a small dataset + index and the data-graph plan the
// shard peers will serve, with the same BlockSize the coordinator uses.
func remoteIndex(t *testing.T) (*datagen.Dataset, *core.Index, *shard.Plan) {
	t.Helper()
	ds := datagen.Generate(datagen.Options{
		Name: "rsrv", Entities: 900, Terms: 80, LeafTypes: 8, Seed: 7,
	})
	opt := core.DefaultBuildOptions()
	opt.Search.SampleCount = 30
	idx, err := core.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan := shard.NewPlanner(shard.Options{BlockSize: 64}).PlanGraph(idx.Data())
	return ds, idx, plan
}

func startPeer(t *testing.T, plan *shard.Plan) (*shardrpc.Server, string) {
	t.Helper()
	srv := shardrpc.NewServer(plan, shardrpc.ServerOptions{BlockSize: 64})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// TestRemoteQueryMatchesInProcess: with a healthy two-replica fleet, the
// remote sharded path returns byte-identical JSON matches to the
// in-process sequential search, with no degradation and no coverage
// block, and /stats reports the fleet.
func TestRemoteQueryMatchesInProcess(t *testing.T) {
	ds, idx, plan := remoteIndex(t)
	_, a1 := startPeer(t, plan)
	_, a2 := startPeer(t, plan)
	peers, err := shardrpc.ParsePeers(a1 + ";" + a2)
	if err != nil {
		t.Fatal(err)
	}
	cl := shardrpc.NewClient(shardrpc.ClientOptions{Peers: peers, BlockSize: 64})
	t.Cleanup(cl.Close)

	remote := New(idx, ds.Ont, Options{DMax: 3, BlockSize: 64, ShardClient: cl})
	local := New(idx, ds.Ont, Options{DMax: 3, BlockSize: 64})
	kw := popularTerm(ds)

	for _, algo := range []string{"bkws", "bidir"} {
		path := "/query?q=" + kw + "&algo=" + algo + "&k=5&layer=0&nocache=1"
		rrec, rbody := get(t, remote, path)
		lrec, lbody := get(t, local, path)
		if rrec.Code != http.StatusOK || lrec.Code != http.StatusOK {
			t.Fatalf("%s: remote %d local %d: %s", algo, rrec.Code, lrec.Code, rrec.Body.String())
		}
		if rbody["degraded"] != nil || rbody["coverage"] != nil {
			t.Fatalf("%s: healthy fleet reported degradation: %v", algo, rbody)
		}
		if !reflect.DeepEqual(rbody["matches"], lbody["matches"]) {
			t.Fatalf("%s: remote and in-process matches differ:\nremote: %v\nlocal:  %v",
				algo, rbody["matches"], lbody["matches"])
		}
	}

	_, stats := get(t, remote, "/stats")
	sh, _ := stats["shard"].(map[string]interface{})
	if sh == nil || sh["remote"] != true {
		t.Fatalf("stats shard block missing remote mode: %v", stats["shard"])
	}
	peersJSON, _ := sh["peers"].([]interface{})
	if len(peersJSON) != 2 {
		t.Fatalf("stats shard.peers: %v", sh["peers"])
	}
	if floor, _ := sh["coverage_floor"].(float64); floor != 1 {
		t.Fatalf("healthy fleet coverage_floor = %v, want 1", sh["coverage_floor"])
	}
}

// TestRemoteShardLossDegradesAndRecovers is the coordinator-side loss
// story end to end: killing the only peer turns queries into 200s with
// "degraded":true + an accurate coverage block, flips /readyz to 503,
// never poisons the result cache, and a restarted peer restores healthy
// answers and readiness.
func TestRemoteShardLossDegradesAndRecovers(t *testing.T) {
	ds, idx, plan := remoteIndex(t)
	srv, addr := startPeer(t, plan)
	peers, err := shardrpc.ParsePeers(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := shardrpc.NewClient(shardrpc.ClientOptions{
		Peers:            peers,
		BlockSize:        64,
		DialTimeout:      100 * time.Millisecond,
		CallTimeout:      150 * time.Millisecond,
		MaxAttempts:      2,
		BreakerThreshold: 1,
		BreakerCooldown:  300 * time.Millisecond,
	})
	t.Cleanup(cl.Close)
	s := New(idx, ds.Ont, Options{DMax: 3, BlockSize: 64, ShardClient: cl})
	kw := popularTerm(ds)
	path := "/query?q=" + kw + "&algo=bkws&k=5&layer=0"

	// Healthy baseline (uncached), and the readiness gate is open.
	rec, healthy := get(t, s, path+"&nocache=1")
	if rec.Code != http.StatusOK || healthy["degraded"] != nil {
		t.Fatalf("healthy baseline: %d %v", rec.Code, healthy)
	}
	if rec, _ := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz with healthy peer: %d", rec.Code)
	}

	// Kill the only replica: queries must still complete in-deadline with
	// an honest coverage annotation, and must not be cached.
	srv.Kill()
	rec, body := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("query after peer loss: %d: %s", rec.Code, rec.Body.String())
	}
	if body["degraded"] != true || body["degraded_reason"] != "shards" {
		t.Fatalf("expected shard degradation, got: degraded=%v reason=%v",
			body["degraded"], body["degraded_reason"])
	}
	cov, _ := body["coverage"].(map[string]interface{})
	if cov == nil {
		t.Fatalf("degraded response missing coverage block: %v", body)
	}
	frac, _ := cov["fraction"].(float64)
	unver, _ := cov["roots_unverified"].(float64)
	if !(frac < 1 || unver > 0) {
		t.Fatalf("coverage block claims nothing lost: %v", cov)
	}
	if frac < 1 {
		total, _ := cov["blocks_total"].(float64)
		lost, _ := cov["blocks_lost"].(float64)
		if total != float64(plan.NumBlocks()) || lost <= 0 {
			t.Fatalf("coverage counts wrong (plan has %d blocks): %v", plan.NumBlocks(), cov)
		}
	}

	// The open breaker (threshold 1) means a query started now reaches
	// zero blocks: not ready. /stats mirrors the same state per peer.
	if rec, _ := get(t, s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with all peers down: %d, want 503", rec.Code)
	}
	_, stats := get(t, s, "/stats")
	sh, _ := stats["shard"].(map[string]interface{})
	if floor, ok := sh["coverage_floor"].(float64); !ok || floor != 0 {
		t.Fatalf("stats coverage_floor with dead fleet: %v", sh["coverage_floor"])
	}

	// Restart a peer on the same address, wait out the breaker cooldown:
	// readiness and full answers come back, and the degraded result was
	// never stored — the same cache key now computes the full answer.
	srv2 := shardrpc.NewServer(plan, shardrpc.ServerOptions{BlockSize: 64})
	var lerr error
	for i := 0; i < 40; i++ {
		if _, lerr = srv2.Listen(addr); lerr == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if lerr != nil {
		t.Fatalf("rebinding %s: %v", addr, lerr)
	}
	t.Cleanup(func() { srv2.Close() })
	time.Sleep(400 * time.Millisecond) // past BreakerCooldown: half-open probe allowed

	if rec, _ := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after peer restart: %d", rec.Code)
	}
	rec, body = get(t, s, path)
	if rec.Code != http.StatusOK || body["degraded"] != nil {
		t.Fatalf("query after restart: %d %v %v", rec.Code, body["degraded"], body["degraded_reason"])
	}
	if body["cached"] == true {
		t.Fatal("degraded result leaked into the result cache")
	}
	if !reflect.DeepEqual(body["matches"], healthy["matches"]) {
		t.Fatalf("post-recovery matches differ from healthy baseline:\n%v\n%v",
			body["matches"], healthy["matches"])
	}
	// And the recomputed healthy result IS cached for the next identical query.
	_, again := get(t, s, path)
	if again["cached"] != true {
		t.Fatalf("healthy recomputation was not cached: %v", again["cached"])
	}
}

// TestRemoteFleetDebugAndPeerAttribution covers the fleet-facing
// observability surface at the HTTP layer: /debug/fleet reports the peer
// with negotiated telemetry and a live Stats snapshot, a traced query
// leaves a stitched multi-process trace in the flight recorder, and
// killing the peer yields a degraded response whose coverage block names
// the failing peer address.
func TestRemoteFleetDebugAndPeerAttribution(t *testing.T) {
	ds, idx, plan := remoteIndex(t)
	srv, addr := startPeer(t, plan)
	peers, err := shardrpc.ParsePeers(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := shardrpc.NewClient(shardrpc.ClientOptions{
		Peers:            peers,
		BlockSize:        64,
		TelemetrySample:  1,
		DialTimeout:      100 * time.Millisecond,
		CallTimeout:      150 * time.Millisecond,
		MaxAttempts:      2,
		BreakerThreshold: 1,
		BreakerCooldown:  300 * time.Millisecond,
	})
	t.Cleanup(cl.Close)
	s := New(idx, ds.Ont, Options{
		DMax: 3, BlockSize: 64, ShardClient: cl,
		Debug: DebugOptions{Endpoints: true, Sample: 1},
	})
	kw := popularTerm(ds)
	path := "/query?q=" + kw + "&algo=bkws&k=5&layer=0&nocache=1"

	// Fleet view while healthy: the one peer row carries negotiated
	// telemetry and an in-process stats snapshot.
	rec, fleet := get(t, s, "/debug/fleet")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/fleet: %d: %s", rec.Code, rec.Body.String())
	}
	rows, _ := fleet["peers"].([]interface{})
	if len(rows) != 1 {
		t.Fatalf("fleet peers = %v", fleet["peers"])
	}
	row, _ := rows[0].(map[string]interface{})
	if row["addr"] != addr || row["telemetry"] != true {
		t.Fatalf("fleet row: %v", row)
	}
	if st, _ := row["stats"].(map[string]interface{}); st == nil || st["gomaxprocs"].(float64) < 1 {
		t.Fatalf("fleet row missing stats snapshot: %v", row)
	}

	// A traced query (recorder keeps everything at Sample 1) must retain a
	// stitched trace: client rpc span, grafted remote span, fleet-summed
	// remote cost in the ledger.
	if rec, _ := get(t, s, path); rec.Code != http.StatusOK {
		t.Fatalf("query: %d: %s", rec.Code, rec.Body.String())
	}
	_, list := get(t, s, "/debug/traces?limit=5")
	traces, _ := list["traces"].([]interface{})
	if len(traces) == 0 {
		t.Fatalf("no retained traces: %v", list)
	}
	id, _ := traces[0].(map[string]interface{})["id"].(string)
	trec, _ := get(t, s, "/debug/traces/"+id)
	tree := trec.Body.String()
	for _, wantSub := range []string{`"rpc:expand"`, `"remote:expand"`, `"peer": "` + addr + `"`, `"remote_calls"`} {
		if !strings.Contains(tree, wantSub) {
			t.Fatalf("stitched trace %s lacks %s:\n%s", id, wantSub, tree)
		}
	}

	// Kill the only peer: the degraded coverage block must name it.
	srv.Kill()
	rec, body := get(t, s, path)
	if rec.Code != http.StatusOK || body["degraded"] != true {
		t.Fatalf("query after peer loss: %d degraded=%v", rec.Code, body["degraded"])
	}
	cov, _ := body["coverage"].(map[string]interface{})
	failed, _ := cov["failed_peers"].([]interface{})
	if len(failed) != 1 || failed[0] != addr {
		t.Fatalf("coverage failed_peers = %v, want [%s]", cov["failed_peers"], addr)
	}
}

// TestRemoteStaleFleetFallsBackToLocal: peers serving a different graph
// (digest mismatch) are detected when the evaluator prepares the data
// graph, and the search runs sequentially in process — reachable-but-wrong
// is a configuration problem, not an outage, so answers stay exact rather
// than degraded, and nothing is sent to the peers.
func TestRemoteStaleFleetFallsBackToLocal(t *testing.T) {
	ds, idx, _ := remoteIndex(t)
	other := datagen.Generate(datagen.Options{
		Name: "other", Entities: 300, Terms: 40, LeafTypes: 6, Seed: 8,
	})
	stalePlan := shard.NewPlanner(shard.Options{BlockSize: 64}).PlanGraph(other.Graph)
	_, addr := startPeer(t, stalePlan)
	peers, err := shardrpc.ParsePeers(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := shardrpc.NewClient(shardrpc.ClientOptions{Peers: peers, BlockSize: 64})
	t.Cleanup(cl.Close)

	s := New(idx, ds.Ont, Options{DMax: 3, BlockSize: 64, ShardClient: cl})
	local := New(idx, ds.Ont, Options{DMax: 3, BlockSize: 64})
	kw := popularTerm(ds)
	path := fmt.Sprintf("/query?q=%s&algo=bkws&k=5&layer=0&nocache=1", kw)
	rec, body := get(t, s, path)
	lrec, lbody := get(t, local, path)
	if rec.Code != http.StatusOK || lrec.Code != http.StatusOK {
		t.Fatalf("status %d / %d", rec.Code, lrec.Code)
	}
	if body["degraded"] != nil {
		t.Fatalf("stale fleet should fall back in-process, not degrade: %v", body)
	}
	if !reflect.DeepEqual(body["matches"], lbody["matches"]) {
		t.Fatal("fallback answers differ from in-process execution")
	}
	if n := shardQueries(s, "bkws"); n != 0 {
		t.Fatalf("%d searches went to a stale fleet", n)
	}
}
