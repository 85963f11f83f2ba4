// Command bigindexd serves a BiG-index over HTTP (see internal/server for
// the API):
//
//	bigindexd -preset yago-s -addr :8080
//	bigindexd -preset demo -snapshot idx.snap     # restore, or build and save
//	bigindexd -preset demo -pprof localhost:6060  # profiling sidecar
//
//	curl 'localhost:8080/query?q=term 17,term 27&algo=blinks&k=5'
//	curl 'localhost:8080/query?q=term 17&trace=1'
//	curl 'localhost:8080/query?q=term 17&timeout=250ms'
//	curl 'localhost:8080/explain?q=term 17,term 27'
//	curl 'localhost:8080/complete?prefix=term'
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/metrics'
//	curl 'localhost:8080/readyz'
//
// Logging is structured (log/slog; -log json for JSON lines), metrics are
// Prometheus text format at /metrics, and -pprof serves net/http/pprof on
// its own mux so profiling is never exposed on the public listener.
//
// The daemon is built for rough traffic: per-query deadlines degrade
// long-running evaluations to partial results (-query-timeout), a
// load-shedding gate bounds concurrent evaluations (-max-inflight,
// -shed-wait), the http.Server carries read/write/idle timeouts so slow
// clients cannot pin connections, and SIGINT/SIGTERM trigger a graceful
// drain: /readyz flips to 503 (-drain-grace gives load balancers time to
// notice), in-flight queries get -drain-timeout to finish, and the process
// exits 0. SIGHUP is ignored.
//
// With -wal the index is live: POST /admin/edges applies a batch of edge
// and vertex changes through core.Applied, after making it durable in the
// write-ahead log, and swaps the result in without interrupting in-flight
// queries. That is the only way the served index changes; boot replays the
// log's tail on top of the -snapshot.
//
// Query results are cached (-cache-size, -cache-ttl, -cache-bytes;
// internal/qcache) and -warm-file pre-populates the cache from a
// workload file before the listener opens, so the first burst of
// production traffic hits warm entries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/obs"
	"bigindex/internal/server"
	"bigindex/internal/shard"
	"bigindex/internal/shardrpc"
	"bigindex/internal/snapshot"
	"bigindex/internal/wal"
)

func main() {
	preset := flag.String("preset", "demo", "dataset preset (demo, yago-s, dbpedia-s, imdb-s, synt-*)")
	addr := flag.String("addr", ":8080", "listen address")
	dmax := flag.Int("dmax", 4, "distance bound")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (separate mux; empty = off)")
	logFormat := flag.String("log", "text", "log format: text or json")
	logLevel := flag.String("level", "info", "log level: debug, info, warn, error")
	slowQuery := flag.Duration("slow", 500*time.Millisecond, "slow-query log threshold (0 = disabled)")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second,
		"per-query evaluation deadline; expired queries return partial results (0 = none)")
	maxInFlight := flag.Int("max-inflight", 4*runtime.GOMAXPROCS(0),
		"max concurrently evaluating queries before shedding with 429 (0 = unbounded)")
	shedWait := flag.Duration("shed-wait", 100*time.Millisecond,
		"how long a query may wait for an evaluation slot before being shed")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server read timeout")
	writeTimeout := flag.Duration("write-timeout", 0,
		"http.Server write timeout (0 = query-timeout + 30s, so degraded responses can still be written)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server keep-alive idle timeout")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond,
		"after a shutdown signal, how long /readyz advertises 503 before connections close")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second,
		"how long in-flight requests get to finish during graceful shutdown")
	cacheSize := flag.Int("cache-size", 4096, "query result cache entries (0 = disabled)")
	cacheTTL := flag.Duration("cache-ttl", time.Minute, "query result cache entry lifetime (0 = no expiry)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "query result cache byte budget (0 = unbounded)")
	warmFile := flag.String("warm-file", "",
		"pre-populate the query cache from this workload file before serving (one query per line: kw1,kw2 [| algo [| k]])")
	snapshotFile := flag.String("snapshot", "",
		"crash-safe index snapshot path: boot from it when valid (falling back to a rebuild on corruption or source mismatch), re-save after every build, WAL replay and compaction")
	walFile := flag.String("wal", "",
		"write-ahead log path; enables the live mutation API (POST /admin/edges): batches are fsynced here before applying, and boot replays the tail not yet covered by the snapshot")
	walMaxBytes := flag.Int64("wal-max-bytes", 64<<20,
		"auto-compact (persist snapshot, truncate WAL) once the log exceeds this size (0 = only manual POST /admin/compact)")
	adminToken := flag.String("admin-token", "",
		"shared secret required on the admin endpoints via X-Admin-Token or Authorization: Bearer (empty = no auth)")
	debugEndpoints := flag.Bool("debug-endpoints", false,
		"expose the flight-recorder endpoints /debug/traces, /debug/active, /debug/index (off by default: they reveal query text)")
	traceSample := flag.Float64("trace-sample", 0.01,
		"uniform keep probability for unremarkable query traces; slow/errored/degraded/shed queries are always kept (negative = recorder off)")
	traceStoreSize := flag.Int("trace-store-size", 512, "flight-recorder trace ring capacity")
	traceKeepSlowest := flag.Int("trace-keep-slowest", 8, "K slowest queries retained per window by the flight recorder")
	shardServe := flag.String("shard-serve", "",
		"run as a shard server instead of the HTTP daemon: boot the index, then answer shardrpc expansion/verification on this address until SIGTERM")
	shardBlocks := flag.String("shard-blocks", "all",
		"with -shard-serve, which plan blocks this process answers: 'all', a list like '0,2-5', or a residue class like '0%2'")
	shardPeers := flag.String("shard-peers", "",
		"run bkws/bidir layer-0 expansion on these shardrpc peers: 'addr[=blocks];...' or '@file' (one entry per line, # comments); every block needs at least one replica or queries degrade; summary layers and a data graph the peers no longer serve search in process")
	shardBlockSize := flag.Int("shard-block-size", 0,
		"partition block size for sharded execution; must match across coordinator and shard servers (0 = default)")
	shardTelemetrySample := flag.Float64("shard-telemetry-sample", 0.01,
		"fraction of traced queries that carry distributed-tracing headers over shard RPCs and stitch peer spans/ledgers into /debug/traces (0 disables; answers are byte-identical either way)")
	flag.Parse()
	// Nothing reloads the index on SIGHUP; ignoring it from the start keeps
	// a habitual kill -HUP from terminating the daemon, even mid-boot.
	signal.Ignore(syscall.SIGHUP)

	logger := obs.NewLogger(os.Stderr, parseLevel(*logLevel), *logFormat == "json")
	if *shardServe != "" && *shardPeers != "" {
		fatal(logger, "bad flag", fmt.Errorf("-shard-serve and -shard-peers are mutually exclusive (a process is a shard server or a coordinator, not both)"))
	}
	// One line with the full effective configuration — every flag after
	// defaulting — so any incident log pins down exactly how the daemon ran.
	logger.Info("effective config", configAttrs(flag.CommandLine)...)
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)

	ds, err := datagen.Preset(*preset)
	if err != nil {
		fatal(logger, "bad preset", err)
	}
	snapLoadSec, snapSaveSec := snapshotGauges(reg)

	idx, wlog, walSeq := bootIndex(ds, *snapshotFile, *walFile, reg, logger, snapLoadSec, snapSaveSec)
	if wlog != nil {
		defer wlog.Close()
	}

	// Shard-server mode: same boot (preset/snapshot/WAL replay give every
	// process the identical graph, which the digest handshake then proves),
	// but instead of the HTTP stack the process answers shardrpc until a
	// shutdown signal.
	if *shardServe != "" {
		runShardServer(logger, idx, *shardServe, *shardBlocks, *shardBlockSize)
		return
	}

	if *pprofAddr != "" {
		go servePprof(logger, *pprofAddr)
	}

	var shardClient *shardrpc.Client
	if *shardPeers != "" {
		peers, err := shardrpc.ParsePeers(*shardPeers)
		if err != nil {
			fatal(logger, "bad -shard-peers", err)
		}
		shardClient = shardrpc.NewClient(shardrpc.ClientOptions{
			Peers:           peers,
			BlockSize:       *shardBlockSize,
			TelemetrySample: *shardTelemetrySample,
			Metrics:         shardrpc.NewMetrics(reg),
			Logger:          logger,
		})
		defer shardClient.Close()
		logger.Info("shard fleet configured", "peers", shardClient.Peers())
	}

	sq := *slowQuery
	if sq == 0 {
		sq = -1 // Options: 0 means default, negative disables
	}
	sw := *shedWait
	if sw == 0 {
		sw = -1 // Options: 0 means default, negative sheds immediately
	}
	srv := server.New(idx, ds.Ont, server.Options{
		DMax:         *dmax,
		Metrics:      reg,
		Logger:       logger,
		SlowQuery:    sq,
		QueryTimeout: *queryTimeout,
		MaxInFlight:  *maxInFlight,
		ShedWait:     sw,
		Cache:        cacheOptions(*cacheSize, *cacheTTL, *cacheBytes),
		Debug: server.DebugOptions{
			Endpoints:   *debugEndpoints,
			Sample:      *traceSample,
			StoreSize:   *traceStoreSize,
			KeepSlowest: *traceKeepSlowest,
		},
		AdminToken:  *adminToken,
		BlockSize:   *shardBlockSize,
		ShardClient: shardClient,
	})

	if *warmFile != "" {
		if err := warmCache(srv, logger, *warmFile); err != nil {
			fatal(logger, "warming cache", err)
		}
	}

	// Live mutation: with -wal set, POST /admin/edges mutates the served
	// graph through delta maintenance, every accepted batch fsynced to the
	// WAL before it is applied, and POST /admin/compact (or -wal-max-bytes)
	// folds the log into the snapshot. It is the one path that changes the
	// served index.
	if wlog != nil {
		mopt := server.MutatorOptions{
			WAL:         wlog,
			MaxWALBytes: *walMaxBytes,
			Logger:      logger,
		}
		if *snapshotFile != "" {
			mopt.Persist = func(_ context.Context, idx *core.Index, seq uint64) error {
				return persistSnapshot(*snapshotFile, idx, walMeta(ds, seq), logger, snapSaveSec)
			}
		}
		server.NewMutator(srv, walSeq, mopt)
	}

	wt := *writeTimeout
	if wt == 0 {
		// The write timeout must outlast the query deadline or degraded
		// partial responses would be cut off mid-write.
		wt = *queryTimeout + 30*time.Second
	}
	httpSrv := &http.Server{
		Handler:           srv,
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      wt,
		IdleTimeout:       *idleTimeout,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen", err)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	logger.Info("serving", "dataset", ds.Name, "addr", ln.Addr().String(),
		"query_timeout", *queryTimeout, "max_inflight", *maxInFlight)
	if err := serve(ln, httpSrv, srv, logger, *drainGrace, *drainTimeout, sigs); err != nil {
		fatal(logger, "listen", err)
	}
}

// runShardServer is -shard-serve's main loop: plan the booted data graph
// (the same deterministic partition every coordinator derives), listen for
// shardrpc connections, and drain gracefully on SIGINT/SIGTERM. The block
// spec only restricts which blocks this process answers — misrouted
// requests are refused — while routing itself lives in the coordinator's
// -shard-peers membership.
func runShardServer(logger *slog.Logger, idx *core.Index, addr, blockSpec string, blockSize int) {
	plan := shard.NewPlanner(shard.Options{BlockSize: blockSize}).PlanGraph(idx.Data())
	blocks, err := shardrpc.ParseBlocks(blockSpec, plan.NumBlocks())
	if err != nil {
		fatal(logger, "bad -shard-blocks", err)
	}
	srv := shardrpc.NewServer(plan, shardrpc.ServerOptions{
		Blocks:    blocks,
		BlockSize: blockSize,
		Logger:    logger,
	})
	lnAddr, err := srv.Listen(addr)
	if err != nil {
		fatal(logger, "shard listen", err)
	}
	serving := blockSpec
	if blocks == nil {
		serving = "all"
	}
	logger.Info("shard server ready",
		"addr", lnAddr.String(),
		"blocks", plan.NumBlocks(),
		"serving", serving,
		"digest", fmt.Sprintf("%016x", idx.Data().Digest()))
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	logger.Info("shutdown signal received; closing shard server", "signal", fmt.Sprint(sig))
	srv.Close()
}

// bootIndex produces the index the daemon serves, in one pass:
//
//  1. With walPath set, open the WAL. Its base digest must match the
//     preset: replaying someone else's mutation history would be silently
//     wrong.
//  2. With snapPath set, restore the snapshot when it is of this graph
//     (LoadFileFor) or, with a WAL, descends from its base
//     (LoadFileWithBase). Any other outcome — no file yet, corruption, a
//     snapshot of a different source graph — logs its precise reason and
//     falls back to a build, so corruption can cost time but never
//     availability.
//  3. Build the index if nothing was restored.
//  4. Replay every WAL batch the snapshot does not already cover, through
//     the same core.Applied path a live mutation takes.
//  5. Persist the snapshot when the index was rebuilt or absorbed batches,
//     so the next boot is a pure load.
//
// The one unrecoverable shape is a snapshot older than the log's first
// record when the log does not start at batch 1 — compaction discarded
// records only a lost newer snapshot covered — which is fatal rather than
// quietly served wrong. The WAL and the covered sequence are nil and 0
// without walPath.
func bootIndex(ds *datagen.Dataset, snapPath, walPath string, reg *obs.Registry,
	logger *slog.Logger, loadSec, saveSec *obs.Gauge) (*core.Index, *wal.Log, uint64) {
	base := ds.Graph.Digest()
	var wlog *wal.Log
	var batches []wal.Batch
	if walPath != "" {
		var info wal.ReplayInfo
		var err error
		wlog, info, err = wal.Open(walPath, wal.Options{BaseDigest: base})
		if err != nil {
			fatal(logger, "opening WAL (a mismatched or structurally damaged log needs operator attention; deleting it discards acknowledged mutations)", err)
		}
		if info.Truncated {
			logger.Warn("WAL had a torn tail (crash mid-append); truncated",
				"file", walPath, "dropped_bytes", info.DroppedBytes)
		}
		batches = info.Batches
	}

	var idx *core.Index
	var covered uint64
	if snapPath != "" {
		load := snapshot.LoadFileFor
		if wlog != nil {
			load = snapshot.LoadFileWithBase
		}
		start := time.Now()
		loaded, meta, err := load(snapPath, ds.Ont, base)
		switch {
		case err == nil:
			elapsed := time.Since(start)
			loadSec.Set(elapsed.Seconds())
			idx = loaded
			if wlog != nil {
				covered = meta.WALSeq
			}
			logger.Info("index restored from snapshot",
				"file", snapPath,
				"layers", idx.NumLayers(),
				"epoch", meta.Epoch,
				"wal_seq", covered,
				"created", time.Unix(meta.CreatedUnix, 0).UTC().Format(time.RFC3339),
				"note", meta.BuildNote,
				"elapsed", elapsed.Round(time.Millisecond))
		case snapshot.IsNotExist(err):
			logger.Info("no snapshot yet; building index", "file", snapPath)
		case errors.Is(err, snapshot.ErrSourceMismatch):
			logger.Warn("snapshot is from a different source graph; rebuilding", "file", snapPath, "err", err)
		case errors.Is(err, snapshot.ErrBadSnapshot):
			logger.Warn("snapshot is corrupt; rebuilding", "file", snapPath, "err", err)
		default:
			logger.Warn("snapshot unreadable; rebuilding", "file", snapPath, "err", err)
		}
	}
	rebuilt := idx == nil
	if rebuilt {
		start := time.Now()
		opt := core.DefaultBuildOptions()
		opt.Obs = reg // build gauges surface on /metrics
		opt.Logger = logger
		var err error
		if idx, err = core.Build(ds.Graph, ds.Ont, opt); err != nil {
			fatal(logger, "building index", err)
		}
		logger.Info("index built", "dataset", ds.Name,
			"elapsed", time.Since(start).Round(time.Millisecond), "layers", idx.NumLayers())
	}

	if n := len(batches); n > 0 {
		if lo := batches[0].Seq; covered+1 < lo {
			// The log was compacted past this snapshot. Only a pristine
			// log (starting at batch 1) can be replayed from a rebuilt
			// base; anything else has lost history.
			fatal(logger, "boot", fmt.Errorf(
				"WAL %s starts at batch %d but snapshot %s covers only %d: the missing batches were compacted into a snapshot that no longer exists",
				walPath, lo, snapPath, covered))
		}
		replayed := 0
		start := time.Now()
		for _, b := range batches {
			if b.Seq <= covered {
				continue // compaction crashed between persist and truncate; the snapshot already has it
			}
			// Records were strictly validated before they entered the log,
			// so only a maintenance bug can fail here.
			d := core.Delta{AddVertices: b.AddVertices, AddEdges: b.AddEdges, RemoveEdges: b.RemoveEdges}
			var err error
			if idx, _, err = idx.Applied(d, core.DeltaOptions{}); err != nil {
				fatal(logger, "replaying WAL", fmt.Errorf("batch %d: %w", b.Seq, err))
			}
			covered = b.Seq
			replayed++
		}
		logger.Info("WAL replayed", "file", walPath, "batches", replayed,
			"skipped", n-replayed, "seq", covered, "wal_bytes", wlog.Size(),
			"elapsed", time.Since(start).Round(time.Millisecond))
	}
	if wlog != nil {
		// The in-memory sequence floor must cover the snapshot even when
		// the log is empty (freshly compacted), or the next accepted batch
		// would reuse a sequence number the snapshot already claims.
		wlog.SetLastSeq(covered)
	}

	if snapPath != "" && (rebuilt || covered > 0) {
		// Best effort: a failed save leaves the daemon serving; the next
		// successful compaction retries the persist.
		meta := snapshot.Meta{CreatedUnix: time.Now().Unix(), BuildNote: ds.Name}
		if wlog != nil {
			meta = walMeta(ds, covered)
		}
		_ = persistSnapshot(snapPath, idx, meta, logger, saveSec)
	}
	return idx, wlog, covered
}

// snapshotGauges registers the wall-time gauges of the last snapshot
// load and save.
func snapshotGauges(reg *obs.Registry) (load, save *obs.Gauge) {
	return reg.Gauge("bigindex_snapshot_load_seconds", "Wall time of the last successful snapshot load."),
		reg.Gauge("bigindex_snapshot_save_seconds", "Wall time of the last successful snapshot save.")
}

// walMeta is the snapshot metadata for a WAL-maintained index: it records
// the boot base the log is anchored to and the last batch the snapshot
// covers, so the next boot replays only the tail.
func walMeta(ds *datagen.Dataset, seq uint64) snapshot.Meta {
	return snapshot.Meta{
		CreatedUnix: time.Now().Unix(),
		BuildNote:   ds.Name,
		BaseDigest:  ds.Graph.Digest(),
		WALSeq:      seq,
	}
}

// persistSnapshot writes the crash-safe snapshot and records its wall
// time; failures are logged and returned, never fatal.
func persistSnapshot(path string, idx *core.Index, meta snapshot.Meta,
	logger *slog.Logger, saveSec *obs.Gauge) error {
	start := time.Now()
	if err := snapshot.SaveFile(path, idx, meta); err != nil {
		logger.Warn("snapshot save failed", "file", path, "err", err)
		return err
	}
	elapsed := time.Since(start)
	saveSec.Set(elapsed.Seconds())
	logger.Info("snapshot saved", "file", path, "epoch", idx.Epoch(),
		"elapsed", elapsed.Round(time.Millisecond))
	return nil
}

// serve runs httpSrv on ln until a shutdown signal arrives, then drains
// gracefully: readiness flips to 503 so load balancers stop routing, grace
// passes so they have a chance to notice, in-flight requests get up to
// drainTimeout to finish via http.Server.Shutdown, and serve returns nil
// for a clean exit 0. A listener error before any signal is returned as-is.
func serve(ln net.Listener, httpSrv *http.Server, srv *server.Server, logger *slog.Logger,
	grace, drainTimeout time.Duration, sigs <-chan os.Signal) error {
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	case sig := <-sigs:
		logger.Info("shutdown signal received; draining",
			"signal", fmt.Sprint(sig), "grace", grace, "timeout", drainTimeout)
		srv.SetDraining(true)
		time.Sleep(grace)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("drain timed out; forcing close", "err", err)
			httpSrv.Close()
		}
		logger.Info("drained; exiting")
		return nil
	}
}

// servePprof exposes the profiling handlers on a dedicated mux: the public
// listener never sees /debug/pprof even though importing net/http/pprof
// registers it on http.DefaultServeMux.
func servePprof(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("pprof listener failed", "err", err)
	}
}

// cacheOptions maps the daemon's flag conventions (0 = off/unbounded)
// onto server.CacheOptions' (0 = default, negative = off/unbounded).
func cacheOptions(size int, ttl time.Duration, bytes int64) server.CacheOptions {
	co := server.CacheOptions{Size: size, TTL: ttl, Bytes: bytes}
	if size <= 0 {
		co.Size = -1
	}
	if ttl <= 0 {
		co.TTL = -1
	}
	if bytes <= 0 {
		co.Bytes = -1
	}
	return co
}

// warmCache pre-populates the query cache from a workload file (one
// query per line: "kw1,kw2 [| algo [| k]]"; #-comments and blanks are
// skipped). Individual bad lines are logged, not fatal — a stale
// workload file should not keep the daemon from serving.
func warmCache(srv *server.Server, logger *slog.Logger, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	start := time.Now()
	n, err := srv.Warm(context.Background(), strings.Split(string(data), "\n"))
	if err != nil {
		logger.Warn("some warm queries failed", "file", path, "err", err)
	}
	logger.Info("cache warmed", "file", path, "queries", n,
		"elapsed", time.Since(start).Round(time.Millisecond))
	return nil
}

// configAttrs renders a FlagSet's full effective configuration — every
// defined flag with the value it ended up with after parsing and
// defaulting — as slog attrs, sorted by flag name (flag.VisitAll order).
func configAttrs(fs *flag.FlagSet) []any {
	var attrs []any
	fs.VisitAll(func(f *flag.Flag) {
		attrs = append(attrs, slog.String(f.Name, f.Value.String()))
	})
	return attrs
}

func parseLevel(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}
