// Command hetesimd serves relevance search over a heterogeneous network as
// an HTTP JSON API (see internal/server for the endpoints).
//
// Usage:
//
//	hetesimd -graph g.json [-addr :8080] [-precompute APVC,CVPA]
//	         [-query-timeout 10s] [-max-inflight 256] [-shutdown-grace 15s]
//	         [-max-body-bytes 1048576] [-cache-limit 0]
//	         [-batch-max-queries 1024] [-batch-workers 0]
//	         [-slowlog-threshold 1s] [-slowlog-size 128] [-debug-addr ""]
//	         [-snapshot-path chains.snap] [-snapshot-save-interval 5m]
//	         [-warm-from http://peer:8080]
//	         [-wal-path edges.wal] [-wal-compact-bytes 16777216]
//	         [-follow http://primary:8080] [-follow-interval 1s]
//	         [-advertise http://me:8080]
//	         [-relevance-max-len 4] [-relevance-max-paths 16]
//	         [-path-weights weights.json]
//
// -precompute materializes the listed relevance paths in the background at
// startup (the offline materialization of Section 4.6 of the paper);
// /readyz answers 503 until materialization finishes, while /healthz is
// pure liveness. Queries are bounded by -query-timeout (a query past it
// answers 504 deadline_exceeded; every answer is exact), and load beyond
// -max-inflight concurrent queries is shed with 429.
// SIGINT/SIGTERM drain in-flight requests for up to -shutdown-grace.
//
// POST /v1/batch accepts up to -batch-max-queries queries per request and
// executes them on -batch-workers goroutines via the path-group scheduler;
// the -query-timeout budget applies to each query in the batch
// individually, not to the batch as a whole.
//
// POST /v1/relevance answers path-free relevance: it enumerates every
// schema-valid meta path between the endpoint types (at most
// -relevance-max-len steps, at most -relevance-max-paths candidates),
// scores all of them through the batch scheduler, and combines them into a
// weighted ensemble. -path-weights loads learned per-path weights (the
// LoadWeightsFile JSON format) and enables "weighting": "learned"; a
// malformed weights file fails startup.
//
// Durability: -snapshot-path names a checksummed snapshot of the engine's
// materialized chain matrices. At boot the daemon warm-starts from it when
// it matches the graph (a corrupt or mismatched snapshot is rejected and
// logged, never served); it is rewritten crash-safely after startup
// materialization, every -snapshot-save-interval, and on shutdown.
// SIGHUP (or POST /v1/admin/reload) re-reads -graph and swaps the new
// graph in atomically — in-flight queries finish on the old graph, not
// one request fails, and a bad replacement leaves the old graph serving.
//
// Mutations: -wal-path enables POST /v1/admin/edges, which applies batches
// of edge/node deltas without a restart. Every batch is fsynced to the
// write-ahead log before it is acked, so acked mutations survive a crash:
// at boot the log is replayed over -graph (readyz reports "replaying")
// through the same incremental cache maintenance the live path uses. When
// the log outgrows -wal-compact-bytes it is folded into a crash-safely
// rewritten -graph file. During shutdown drain, mutations and reloads
// answer 409.
//
// Replication: -follow turns the daemon into a read replica of another
// hetesimd (or of the primary a hetesim-router elects). It polls the
// primary's WAL tail (GET /v1/admin/wal) every -follow-interval, logs and
// applies each delta exactly as a local write would, and reports its
// position, lag, and the primary it follows in /readyz; direct mutations
// answer 503 with the primary's address. When the primary's compaction
// outruns the follower — or the follower's fingerprint diverges from the
// primary's at the same sequence — it resyncs: one resumable GET
// /v1/admin/state carries the primary's graph, the wal_seq it embodies and
// its materialized chains, adopted as one generation, and it re-follows.
// With -follow pointed at a router, -advertise identifies this daemon in the
// router's election: when elected it stands down as follower and accepts
// writes. -warm-from fetches the same state from a peer once at boot but
// imports only its chains, and only when the peer serves this very graph —
// the join path of a fleet without write-ahead logs to follow.
//
// Observability: Prometheus metrics are served at GET /metrics on the
// main listener, queries slower than -slowlog-threshold are retained
// (newest -slowlog-size) with per-stage traces at GET /v1/slowlog, and
// -debug-addr (opt-in, keep it private) serves net/http/pprof profiles
// on a separate listener.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/relevance"
	"hetesim/internal/server"
)

func main() {
	var (
		graphPath     = flag.String("graph", "", "graph JSON file (required)")
		addr          = flag.String("addr", ":8080", "listen address")
		precompute    = flag.String("precompute", "", "comma-separated relevance paths to materialize at startup")
		queryTimeout  = flag.Duration("query-timeout", 10*time.Second, "per-request deadline for /v1 queries (0 disables)")
		maxInflight   = flag.Int("max-inflight", 256, "concurrent /v1 queries before shedding with 429 (0 disables)")
		shutdownGrace = flag.Duration("shutdown-grace", 15*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
		maxBodyBytes  = flag.Int64("max-body-bytes", 1<<20, "request body size cap in bytes (0 disables)")
		forcePlan     = flag.String("force-plan", "", "default physical plan for hetesim queries without an explicit ?plan= ("+core.PlanKindNames+")")
		cacheLimit    = flag.Int("cache-limit", 0, "max materialized chain matrices kept per engine (0 = unbounded)")
		batchMax      = flag.Int("batch-max-queries", 1024, "max queries accepted per POST /v1/batch request (0 = unlimited)")
		batchWorkers  = flag.Int("batch-workers", 0, "concurrent batch-scheduler workers (0 = runtime default)")
		slowThreshold = flag.Duration("slowlog-threshold", time.Second, "retain /v1 queries slower than this in the slow-query log (0 disables)")
		slowSize      = flag.Int("slowlog-size", 128, "slow-query log ring capacity")
		debugAddr     = flag.String("debug-addr", "", "listen address for net/http/pprof (empty disables; do not expose publicly)")
		snapshotPath  = flag.String("snapshot-path", "", "chain-cache snapshot file for warm starts (empty disables)")
		warmFrom      = flag.String("warm-from", "", "base URL of a peer hetesimd serving the same graph to fetch its chains from at boot (empty disables)")
		snapshotEvery = flag.Duration("snapshot-save-interval", 5*time.Minute, "how often to persist the chain cache (0 disables the periodic save)")
		walPath       = flag.String("wal-path", "", "edge-delta write-ahead log enabling POST /v1/admin/edges (empty disables mutations)")
		walCompact    = flag.Int64("wal-compact-bytes", 16<<20, "fold the WAL into a rewritten -graph file when it outgrows this many bytes (0 never compacts on size)")
		follow        = flag.String("follow", "", "base URL of the write primary (or of a hetesim-router that elects one) to replicate WAL deltas from; makes this daemon a read replica that 503s direct mutations")
		followEvery   = flag.Duration("follow-interval", time.Second, "how often a follower polls the primary's WAL tail")
		advertise     = flag.String("advertise", "", "this daemon's own base URL as the fleet sees it; with -follow pointed at a router, matching the router's elected primary promotes this daemon to accept writes")
		relMaxPaths   = flag.Int("relevance-max-paths", 16, "candidate-path cap for POST /v1/relevance ensembles")
		relMaxLen     = flag.Int("relevance-max-len", 4, "longest meta path enumerated by POST /v1/relevance")
		pathWeights   = flag.String("path-weights", "", "JSON file of learned path weights ({\"weights\": {\"APA\": 0.6, ...}}) enabling the learned weighting mode of POST /v1/relevance")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		log.Fatal("hetesimd: ", err)
	}
	g, err := hin.Read(f)
	f.Close()
	if err != nil {
		log.Fatal("hetesimd: ", err)
	}
	log.Printf("hetesimd: loaded %s", g.Stats())

	defaultPlan, err := core.ParsePlanKind(*forcePlan)
	if err != nil {
		log.Fatal("hetesimd: -force-plan: ", err)
	}

	// Learned ensemble weights are a boot-time artifact (typically written
	// from a learn.PathWeights fit): a malformed file is a deployment bug,
	// so fail loudly instead of serving with learned mode silently off.
	var learned map[string]float64
	if *pathWeights != "" {
		learned, err = relevance.LoadWeightsFile(*pathWeights)
		if err != nil {
			log.Fatal("hetesimd: -path-weights: ", err)
		}
		log.Printf("hetesimd: learned weights for %d paths from %s", len(learned), *pathWeights)
	}

	srv := server.New(g,
		server.WithDefaultPlan(defaultPlan),
		server.WithQueryTimeout(*queryTimeout),
		server.WithMaxInflight(*maxInflight),
		server.WithMaxBodyBytes(*maxBodyBytes),
		server.WithEngineOptions(core.WithCacheLimit(*cacheLimit)),
		server.WithBatchLimits(*batchMax, *batchWorkers),
		server.WithSlowLog(*slowThreshold, *slowSize),
		server.WithSnapshotPath(*snapshotPath),
		server.WithReloadFrom(*graphPath),
		server.WithWALPath(*walPath),
		server.WithWALCompactBytes(*walCompact),
		server.WithRelevanceLimits(*relMaxLen, *relMaxPaths),
		server.WithPathWeights(learned),
		server.WithLogf(log.Printf),
	)

	// Warm-start from the snapshot before materialization kicks off: paths
	// already in the snapshot then cost nothing to "materialize" again. A
	// bad snapshot is logged and skipped — recompute is always correct.
	if *snapshotPath != "" {
		if warm, err := srv.WarmStart(); err != nil {
			log.Printf("hetesimd: snapshot rejected, starting cold: %v", err)
		} else if warm {
			log.Printf("hetesimd: warm start from %s", *snapshotPath)
		}
	}

	// A fresh replica joins warm by pulling a peer's chains over its state
	// endpoint (resumable, CRC-validated end to end) instead of
	// rematerializing; they are admitted only when the peer serves this very
	// graph. Any failure here is tolerated — the local snapshot (if any)
	// already warmed what it could, and cold is always correct.
	if *warmFrom != "" {
		fctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		n, err := srv.WarmFrom(fctx, *warmFrom)
		cancel()
		if err != nil {
			log.Printf("hetesimd: -warm-from %s failed, continuing cold: %v", *warmFrom, err)
		} else {
			log.Printf("hetesimd: warmed %d chains from %s", n, *warmFrom)
		}
	}

	// Open the write-ahead log after the snapshot warm start: replay runs
	// through the incremental maintenance path, so snapshot-warmed chains
	// are carried forward row-by-row instead of recomputed. /readyz reports
	// "replaying" for the duration.
	if *walPath != "" {
		st, err := srv.OpenWAL()
		if err != nil {
			log.Fatal("hetesimd: opening wal: ", err)
		}
		if st.Replayed > 0 || st.TruncatedBytes > 0 || st.SetAside != "" {
			log.Printf("hetesimd: wal replay: %d batches re-applied, %d torn bytes discarded, set aside %q",
				st.Replayed, st.TruncatedBytes, st.SetAside)
		}
	}

	var specs []string
	for _, spec := range strings.Split(*precompute, ",") {
		if spec = strings.TrimSpace(spec); spec != "" {
			specs = append(specs, spec)
		}
	}
	// Materialization runs in the background; /readyz flips to 200 once it
	// finishes (immediately with no paths). A malformed path still fails
	// startup here.
	if err := srv.PrecomputeBackground(specs); err != nil {
		log.Fatal("hetesimd: ", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// pprof lives on its own opt-in listener, never the public mux: the
	// profiles expose internals (and profiling CPU costs) no query client
	// should reach.
	if *debugAddr != "" {
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv := &http.Server{Addr: *debugAddr, Handler: debugMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("hetesimd: pprof on %s/debug/pprof/", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("hetesimd: debug listener: %v", err)
			}
		}()
		defer debugSrv.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// SIGHUP hot-reloads the graph file: the replacement is validated off
	// to the side and swapped in atomically, so a bad file (or a crash
	// mid-rewrite of it) leaves the old graph serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			log.Printf("hetesimd: SIGHUP: reloading %s", *graphPath)
			res, err := srv.Reload(context.Background())
			if err != nil {
				log.Printf("hetesimd: reload failed, old graph keeps serving: %v", err)
				continue
			}
			log.Printf("hetesimd: reloaded %d nodes, %d edges (fingerprint %s, %d warm chains) in %s",
				res.Nodes, res.Edges, res.Fingerprint, res.WarmChains, res.Duration.Round(time.Millisecond))
		}
	}()

	// The saver and the follower are blocking calls that return once ctx is
	// canceled; shutdown waits for them before closing the server, so
	// neither can write after Close.
	var loops sync.WaitGroup
	runLoop := func(f func()) {
		loops.Add(1)
		go func() { defer loops.Done(); f() }()
	}

	// Periodic snapshot saves bound the materialization work lost to a
	// crash to one interval.
	if *snapshotPath != "" && *snapshotEvery > 0 {
		runLoop(func() { srv.RunSnapshotSaver(ctx, *snapshotEvery) })
	}

	// Follower mode: replicate the primary's WAL tail into this process,
	// applying each batch through the same incremental maintenance path as
	// a local write. A full resync (compaction outran us, or we diverged)
	// adopts the primary's graph, wal_seq and chains from one state fetch.
	if *follow != "" {
		if *walPath == "" {
			log.Fatal("hetesimd: -follow requires -wal-path (replicated deltas must be durable before they are acked upstream)")
		}
		runLoop(func() {
			srv.RunFollower(ctx, server.FollowerOptions{
				Target:   strings.TrimRight(*follow, "/"),
				Self:     strings.TrimRight(*advertise, "/"),
				Interval: *followEvery,
			})
		})
		log.Printf("hetesimd: following %s (interval %s)", *follow, *followEvery)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("hetesimd: listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatal("hetesimd: ", err)
	case <-ctx.Done():
		stop()
		log.Printf("hetesimd: shutting down, draining for up to %s", *shutdownGrace)
		// Refuse mutations and reloads before the HTTP drain starts: no
		// graph swap may race the shutdown, and a client whose mutation is
		// 409ed here knows to retry against the replacement process. Close
		// then stops the server's background work, saves the final snapshot
		// (with -snapshot-path) and closes the write-ahead log.
		srv.BeginDrain()
		drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		drainErr := httpSrv.Shutdown(drainCtx)
		loops.Wait()
		srv.Close()
		if drainErr != nil {
			log.Printf("hetesimd: drain incomplete: %v", drainErr)
			httpSrv.Close()
			os.Exit(1)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("hetesimd: %v", err)
		}
		log.Print("hetesimd: bye")
	}
}
