// Command hetesim-router fronts a fleet of hetesimd replicas with
// fault-tolerant, cache-affine routing (see internal/router).
//
// Usage:
//
//	hetesim-router -replicas http://a:8080,http://b:8080,http://c:8080
//	               [-addr :8090] [-health-interval 2s]
//	               [-retries 3] [-retry-base 50ms] [-retry-max-wait 2s]
//	               [-hedge] [-hedge-min 10ms] [-hedge-max 500ms]
//	               [-breaker-threshold 5] [-breaker-cooldown 2s]
//	               [-upstream-timeout 30s] [-shutdown-grace 15s]
//	               [-primary http://a:8080] [-max-read-lag 30s]
//	               [-relevance-max-len 4] [-relevance-max-paths 16]
//	               [-path-weights weights.json]
//
// The router consistent-hashes pair/topk/batch/relevance traffic across
// the replicas by canonical relevance-path key, so each replica's chain
// cache stays hot on a disjoint path set. Batch requests are split into
// one sub-batch per replica order (each path group whole), fanned out, and
// re-assembled slot-for-slot; a sub-batch whose replicas are all down fails
// per-slot, never the whole request. Upstream connections are pooled and
// kept per replica. Upstream failures are retried with exponential
// backoff + jitter (Retry-After honored), -hedge races a second replica
// once the first is slower than its p99, and per-replica circuit breakers
// shed a replica after
// -breaker-threshold consecutive failures until a half-open probe
// succeeds. GET /metrics aggregates per-replica health, retries, hedges,
// breaker transitions, and routing decisions; GET /v1/admin/replicas is
// the operator view of the fleet.
//
// Writes: POST /v1/admin/edges relays to the fleet's single write primary
// — -primary pins it to a named replica, otherwise the router elects the
// healthiest caught-up replica and publishes it at GET /v1/admin/primary
// (which -follow'ing replicas poll). During failover windows writes
// answer 503 with Retry-After; acks carry the committed WAL sequence in
// X-Hetesim-WAL-Seq, and a client that echoes it back as X-Min-WAL-Seq on
// reads gets read-your-writes (only replicas at or past that sequence are
// picked). Replicas lagging more than -max-read-lag, or whose fingerprint
// diverges from the fleet's at the same sequence, are deprioritized for
// reads; divergence is surfaced in /v1/admin/replicas and as the
// hetesim_router_fingerprint_divergence gauge.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hetesim/internal/relevance"
	"hetesim/internal/router"
)

func main() {
	var (
		replicas      = flag.String("replicas", "", "comma-separated hetesimd base URLs (required)")
		addr          = flag.String("addr", ":8090", "listen address")
		healthEvery   = flag.Duration("health-interval", 2*time.Second, "how often each replica's /readyz is probed")
		retries       = flag.Int("retries", 3, "upstream retry attempts beyond the first (0 disables)")
		retryBase     = flag.Duration("retry-base", 50*time.Millisecond, "first retry backoff step")
		retryMaxWait  = flag.Duration("retry-max-wait", 2*time.Second, "cap on any single retry wait, including Retry-After")
		hedge         = flag.Bool("hedge", false, "race a second replica when the first exceeds its p99 latency")
		hedgeMin      = flag.Duration("hedge-min", 10*time.Millisecond, "lower clamp on the hedge delay")
		hedgeMax      = flag.Duration("hedge-max", 500*time.Millisecond, "upper clamp on the hedge delay")
		brkThreshold  = flag.Int("breaker-threshold", 5, "consecutive failures that open a replica's circuit breaker (0 disables)")
		brkCooldown   = flag.Duration("breaker-cooldown", 2*time.Second, "how long an open breaker waits before a half-open probe")
		upTimeout     = flag.Duration("upstream-timeout", 30*time.Second, "per-attempt upstream request timeout")
		shutdownGrace = flag.Duration("shutdown-grace", 15*time.Second, "drain window on SIGINT/SIGTERM")
		primary       = flag.String("primary", "", "pin the write primary to this replica URL instead of electing one (must be a -replicas member)")
		maxReadLag    = flag.Duration("max-read-lag", 30*time.Second, "replication lag beyond which a follower is deprioritized for reads")
		relMaxLen     = flag.Int("relevance-max-len", 4, "longest meta path enumerated for scattered /v1/relevance queries")
		relMaxPaths   = flag.Int("relevance-max-paths", 16, "candidate-path cap for scattered /v1/relevance queries")
		pathWeights   = flag.String("path-weights", "", "JSON file of learned path weights enabling the learned weighting mode of scattered /v1/relevance")
	)
	flag.Parse()
	if *replicas == "" {
		flag.Usage()
		os.Exit(2)
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	var learned map[string]float64
	if *pathWeights != "" {
		var err error
		learned, err = relevance.LoadWeightsFile(*pathWeights)
		if err != nil {
			log.Fatal("hetesim-router: -path-weights: ", err)
		}
	}

	opts := []router.Option{
		// No Transport: the router relays through its own pooled one.
		router.WithClient(&http.Client{Timeout: *upTimeout}),
		router.WithRetryPolicy(router.RetryPolicy{Retries: *retries, Base: *retryBase, MaxWait: *retryMaxWait}),
		router.WithBreaker(*brkThreshold, *brkCooldown),
		router.WithHealthInterval(*healthEvery),
		router.WithRelevanceLimits(*relMaxLen, *relMaxPaths),
		router.WithPathWeights(learned),
		router.WithMaxReadLag(*maxReadLag),
		router.WithLogf(log.Printf),
	}
	if *primary != "" {
		opts = append(opts, router.WithPrimary(*primary))
	}
	if *hedge {
		opts = append(opts, router.WithHedging(*hedgeMin, *hedgeMax))
	}
	rt, err := router.New(urls, opts...)
	if err != nil {
		log.Fatal("hetesim-router: ", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rt.Start(ctx)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("hetesim-router: fronting %d replicas on %s", len(urls), *addr)

	select {
	case err := <-errc:
		log.Fatal("hetesim-router: ", err)
	case <-ctx.Done():
		stop()
		log.Printf("hetesim-router: shutting down, draining for up to %s", *shutdownGrace)
		drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("hetesim-router: drain incomplete: %v", err)
			httpSrv.Close()
			os.Exit(1)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("hetesim-router: %v", err)
		}
		rt.Close()
		log.Print("hetesim-router: bye")
	}
}
