// Package server exposes relevance search over a heterogeneous network as
// an HTTP JSON API: pair queries, top-k queries, and schema/stats
// introspection, under any of the implemented measures (HeteSim, PCRW,
// PathSim). It is the online-query deployment surface for the offline
// materialization story of Section 4.6 — engines keep their per-path
// caches across requests, so repeated queries on a path are served from
// materialized reaching distributions.
//
// The server owns the request lifecycle: every query runs under the
// request's context (bounded by an optional per-request deadline), panics
// in handlers are recovered into 500 responses, load beyond a configurable
// in-flight cap is shed with 429, and a query past its deadline fails with
// 504: every answer is exact.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/baseline"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/relevance"
	"hetesim/internal/snapshot"
)

// HTTP-layer observability, reported into the process-wide registry next
// to the engine and kernel metrics so one GET /metrics scrape shows the
// whole pipeline.
var (
	metRequests = obs.Default().CounterVec("hetesim_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "status")
	metLatency = obs.Default().Histogram("hetesim_http_request_duration_seconds",
		"End-to-end /v1 query latency.", obs.DefSecondsBuckets())
	metInflight = obs.Default().Gauge("hetesim_http_inflight_queries",
		"Currently executing /v1 queries.")
	metShed = obs.Default().Counter("hetesim_http_shed_total",
		"Queries shed with 429 at the in-flight cap.")
	metSlowQueries = obs.Default().Counter("hetesim_http_slow_queries_total",
		"Queries admitted to the slow-query log.")
)

// StatusClientClosedRequest is the de-facto (nginx) status for a request
// whose client went away before the response was ready.
const StatusClientClosedRequest = 499

// Server answers relevance queries over one graph generation at a time.
// It is safe for concurrent use: all underlying engines are, and the
// serving generation sits behind the store's atomic pointer so a reload,
// mutation or replicated delta swaps graph and WAL position together
// without failing a single in-flight query — requests resolve the set once
// at entry and drain against it. The Server itself is the HTTP plane:
// decode/encode, admission, and the query handlers; everything that changes
// when the graph moves lives in the store.
type Server struct {
	st      *store
	mux     *http.ServeMux
	handler http.Handler

	queryTimeout time.Duration // per-request deadline for /v1 queries; 0 = none
	maxInflight  int           // concurrent /v1 queries before shedding; 0 = unlimited
	maxBody      int64         // request body cap in bytes
	maxPathSteps int           // longest accepted relevance path
	defaultPlan  core.PlanKind // forced physical plan when a request has no ?plan=; "" = auto

	slowThreshold time.Duration // slow-query log admission bar; 0 = disabled
	slowCapacity  int           // slow-query log ring size
	slowlog       *obs.SlowLog  // nil when disabled

	maxBatchQueries int // queries accepted per /v1/batch request; 0 = unlimited
	batchWorkers    int // batch scheduler worker bound; 0 = runtime default

	relevanceLimits relevance.Limits   // enumeration bounds of /v1/relevance
	pathWeights     map[string]float64 // learned ensemble weights by path spec; nil = learned mode off

	inflight chan struct{}
	state    atomic.Int32 // ReadyState
	draining atomic.Bool  // shutdown drain: refuse mutations and reloads

	// follow is the replica's replication role as RunFollower last resolved
	// it, published whole (replicate.go); nil = follower mode off.
	follow atomic.Pointer[followState]
}

// Option configures a Server.
type Option func(*Server)

// WithQueryTimeout bounds every /v1 query by d: the request context
// expires after d and the engine stops at the next propagation step. 0
// (the default) disables the server-side deadline; client disconnects
// still cancel the query.
func WithQueryTimeout(d time.Duration) Option { return func(s *Server) { s.queryTimeout = d } }

// WithMaxInflight sheds /v1 queries beyond n concurrently running ones
// with 429 and a Retry-After header. 0 (the default) disables shedding.
func WithMaxInflight(n int) Option { return func(s *Server) { s.maxInflight = n } }

// WithMaxBodyBytes caps request body reads at n bytes (default 1 MiB).
func WithMaxBodyBytes(n int64) Option { return func(s *Server) { s.maxBody = n } }

// WithMaxPathSteps caps the length of relevance paths accepted by the
// query endpoints (default 128 steps), so a single adversarial request
// cannot queue an arbitrarily long matrix chain.
func WithMaxPathSteps(n int) Option { return func(s *Server) { s.maxPathSteps = n } }

// WithBatchLimits bounds POST /v1/batch: at most maxQueries queries per
// request (0 = unlimited; the default is 1024), executed by at most
// workers concurrent scheduler goroutines (0 = a runtime-sized default).
// A batch occupies a single WithMaxInflight slot regardless of its size —
// workers is the knob that keeps one giant batch from monopolizing cores.
func WithBatchLimits(maxQueries, workers int) Option {
	return func(s *Server) { s.maxBatchQueries, s.batchWorkers = maxQueries, workers }
}

// WithRelevanceLimits bounds POST /v1/relevance path enumeration: paths of
// at most maxLen steps (0 keeps the default of 4), at most maxPaths
// candidates per query (0 keeps the default of 16). Requests asking beyond
// either limit are rejected with 400.
func WithRelevanceLimits(maxLen, maxPaths int) Option {
	return func(s *Server) { s.relevanceLimits = s.relevanceLimits.With(maxLen, maxPaths) }
}

// WithPathWeights supplies learned ensemble weights (path spec → weight,
// e.g. from learn.PathWeights via relevance.LoadWeightsFile) and enables
// the "learned" weighting mode of POST /v1/relevance.
func WithPathWeights(weights map[string]float64) Option {
	return func(s *Server) { s.pathWeights = weights }
}

// WithDefaultPlan pins the physical plan of hetesim queries that carry no
// explicit ?plan= override (the -force-plan daemon flag). Empty or
// core.PlanAuto (the default) lets the cost-based optimizer choose.
func WithDefaultPlan(kind core.PlanKind) Option { return func(s *Server) { s.defaultPlan = kind } }

// WithEngineOptions forwards options (e.g. core.WithCacheLimit) to the
// server's HeteSim engines.
func WithEngineOptions(opts ...core.Option) Option {
	return func(s *Server) { s.st.engineOpts = append(s.st.engineOpts, opts...) }
}

// WithSlowLog configures the slow-query log: /v1 queries slower than
// threshold are retained (newest capacity entries) with their per-stage
// traces and served at GET /v1/slowlog. The default is 1s/128; threshold
// 0 disables the log and with it the always-on tracing of /v1 queries.
func WithSlowLog(threshold time.Duration, capacity int) Option {
	return func(s *Server) { s.slowThreshold, s.slowCapacity = threshold, capacity }
}

// WithSnapshotPath points the server at its chain-cache snapshot: WarmStart
// loads it at boot, SaveSnapshot/RunSnapshotSaver persist to it, and
// reloads try to re-warm from it. Empty (the default) disables snapshots.
func WithSnapshotPath(path string) Option { return func(s *Server) { s.st.snapshotPath = path } }

// WithReloadFrom names the graph file POST /v1/admin/reload (and SIGHUP in
// the daemon) re-reads. Empty (the default) disables hot-reload.
func WithReloadFrom(graphPath string) Option { return func(s *Server) { s.st.graphPath = graphPath } }

// WithWALPath points the server at its edge-delta write-ahead log:
// OpenWAL replays it at boot and POST /v1/admin/edges appends to it, so
// acked mutations survive a crash. Empty (the default) disables the
// mutation endpoint.
func WithWALPath(path string) Option { return func(s *Server) { s.st.walPath = path } }

// WithWALCompactBytes folds the write-ahead log into a freshly written
// base graph file whenever the log outgrows n bytes, bounding replay time.
// Compaction needs WithReloadFrom (the base graph location). 0 (the
// default) never compacts on size; reloads still compact.
func WithWALCompactBytes(n int64) Option { return func(s *Server) { s.st.walCompactBytes = n } }

// WithSnapshotFS substitutes the filesystem used for snapshot I/O —
// the hook the fault-injection tests use. Defaults to the real filesystem.
func WithSnapshotFS(fsys snapshot.FS) Option { return func(s *Server) { s.st.fsys = fsys } }

// WithLogf sets the server's one logger (background warmup, reload re-warm,
// snapshot saves, compaction, recovered panics). Defaults to log.Printf.
func WithLogf(logf func(string, ...any)) Option { return func(s *Server) { s.st.logf = logf } }

// New creates a Server over g. The server starts in StateCold: construct,
// then optionally WarmStart from a snapshot, then PrecomputeBackground
// (which flips to ready — immediately when there is nothing to
// materialize) or MarkReady directly.
func New(g *hin.Graph, opts ...Option) *Server {
	s := &Server{
		st:              &store{fsys: snapshot.OS{}, logf: log.Printf, applied: make(map[string]uint64)},
		mux:             http.NewServeMux(),
		maxBody:         1 << 20,
		maxPathSteps:    128,
		maxBatchQueries: 1024,
		relevanceLimits: relevance.Limits{MaxLen: 4, MaxPaths: 16},
		slowThreshold:   time.Second,
		slowCapacity:    128,
	}
	for _, o := range opts {
		o(s)
	}
	if s.slowThreshold > 0 {
		s.slowlog = obs.NewSlowLog(s.slowThreshold, s.slowCapacity)
	}
	s.st.start(g)
	s.setState(StateCold)
	if s.maxInflight > 0 {
		s.inflight = make(chan struct{}, s.maxInflight)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.Handle("GET /metrics", obs.Default().Handler())
	s.mux.HandleFunc("GET /v1/schema", s.handleSchema)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/slowlog", s.handleSlowLog)
	s.mux.HandleFunc("GET /v1/pair", s.handleSolo("pair"))
	s.mux.HandleFunc("GET /v1/topk", s.handleSolo("topk"))
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/relevance", s.handleRelevance)
	s.mux.HandleFunc("GET /v1/explain", s.handleExplain)
	s.mux.HandleFunc("GET /v1/why", s.handleWhy)
	s.mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/admin/edges", s.handleMutate)
	s.mux.HandleFunc("GET /v1/admin/state", s.handleState)
	s.mux.HandleFunc("GET /v1/admin/wal", s.handleWALTail)
	s.handler = s.buildHandler()
	return s
}

// Handler returns the HTTP handler tree, wrapped in the robustness
// middleware (panic recovery, body limits, load shedding, deadlines).
func (s *Server) Handler() http.Handler { return s.handler }

// buildHandler assembles the middleware chain, outermost first: measure
// the request, recover from panics, cap body reads, shed load, then
// apply the query deadline. Instrumentation sits outermost so shed,
// panicking, and timed-out requests are all counted with their final
// status.
func (s *Server) buildHandler() http.Handler {
	var h http.Handler = s.mux
	h = s.applyTimeout(h)
	h = s.limitInflight(h)
	h = s.limitBody(h)
	h = s.recoverPanics(h)
	h = s.instrument(h)
	return h
}

// isQueryPath selects the /v1 query surface for the robustness middleware
// (deadline, shedding, slow log). Admin endpoints are excluded: a reload
// must not be shed under load or cut off by the query deadline.
func isQueryPath(r *http.Request) bool {
	return strings.HasPrefix(r.URL.Path, "/v1/") && !strings.HasPrefix(r.URL.Path, "/v1/admin/")
}

// routeLabel maps a request path to a bounded label value: the fixed
// route set keeps /metrics cardinality constant no matter what paths
// clients probe.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/readyz", "/metrics",
		"/v1/schema", "/v1/stats", "/v1/slowlog",
		"/v1/pair", "/v1/topk", "/v1/batch", "/v1/relevance", "/v1/explain", "/v1/why",
		"/v1/admin/reload", "/v1/admin/edges", "/v1/admin/state", "/v1/admin/wal":
		return path
	}
	return "other"
}

// statusWriter captures the response status for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// wantTrace reports whether the client asked for the trace inline
// (?trace=1 on a /v1 query).
func wantTrace(q url.Values) bool {
	b, err := strconv.ParseBool(q.Get("trace"))
	return err == nil && b
}

// intParam reads an optional integer query parameter: def when absent, a
// bad-request error when it does not parse or falls below min.
func intParam(q url.Values, name string, def, min int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min {
		return 0, fmt.Errorf("%w: %s=%q", errBadRequest, name, v)
	}
	return n, nil
}

// instrument is the outermost middleware: it counts every request by
// route and status, tracks in-flight /v1 queries, threads a per-query
// trace through the context (when the client asked with ?trace=1, or
// always while the slow-query log is enabled so slow entries carry their
// stage breakdown), and feeds finished queries into the slow-query log.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isQueryPath(r) {
			sw := &statusWriter{ResponseWriter: w}
			next.ServeHTTP(sw, r)
			metRequests.With(routeLabel(r.URL.Path), strconv.Itoa(sw.statusOr200())).Inc()
			return
		}
		start := time.Now()
		metInflight.Add(1)
		defer metInflight.Add(-1)
		var tr *obs.Trace
		if s.slowlog != nil || wantTrace(r.URL.Query()) {
			var ctx context.Context
			ctx, tr = obs.NewTrace(r.Context())
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		d := time.Since(start)
		status := sw.statusOr200()
		metRequests.With(routeLabel(r.URL.Path), strconv.Itoa(status)).Inc()
		metLatency.Observe(d.Seconds())
		if s.slowlog != nil {
			entry := obs.SlowEntry{
				Time:   start,
				Query:  r.Method + " " + r.URL.RequestURI(),
				Status: status,
				Trace:  tr.Report(d),
			}
			if s.slowlog.Observe(entry, d) {
				metSlowQueries.Inc()
			}
		}
	})
}

func (w *statusWriter) statusOr200() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// recoverPanics converts a handler panic into a 500 JSON response instead
// of killing the daemon. http.ErrAbortHandler is re-panicked so aborted
// connections keep their net/http semantics.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				s.st.logf("server: panic serving %s %s: %v", r.Method, r.URL.Path, v)
				writeJSON(w, http.StatusInternalServerError,
					api.Error{Error: "internal server error", Code: "internal_panic"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// limitBody caps how much of a request body any handler can read.
func (s *Server) limitBody(next http.Handler) http.Handler {
	if s.maxBody <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		next.ServeHTTP(w, r)
	})
}

// limitInflight sheds /v1 queries beyond the in-flight cap with 429 +
// Retry-After, without queueing: a saturated server answers cheaply and
// immediately rather than stacking goroutines. Health endpoints bypass
// the limiter so orchestrators can always probe a busy server.
func (s *Server) limitInflight(next http.Handler) http.Handler {
	if s.inflight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isQueryPath(r) {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			metShed.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests,
				api.Error{Error: "server is at its in-flight query limit", Code: "overloaded"})
		}
	})
}

// applyTimeout bounds /v1 queries by the configured per-request deadline.
func (s *Server) applyTimeout(next http.Handler) http.Handler {
	if s.queryTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// /v1/batch and /v1/relevance are exempt: the batch scheduler
		// applies the same budget to each query (each ensemble path)
		// individually, so a big batch or wide ensemble is not killed
		// whole by a deadline sized for one query.
		if isQueryPath(r) && r.URL.Path != "/v1/batch" && r.URL.Path != "/v1/relevance" {
			ctx, cancel := context.WithTimeout(r.Context(), s.queryTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// Precompute materializes the given relevance path in the HeteSim engine,
// so subsequent queries on it are served from cached reaching
// distributions. The spec is remembered for hot-reload re-warming.
func (s *Server) Precompute(spec string) error {
	if err := precompute(s.st.ctx, s.current(), spec); err != nil {
		return err
	}
	s.st.recordSpec(spec)
	return nil
}

// PrecomputeBackground parses specs immediately — so a bad flag still
// fails fast at startup — then materializes the paths on a goroutine the
// server tracks (Close stops and waits for it), keeping startup off the
// critical path. The server reports warming (/readyz answers 503) until
// materialization finishes, then flips to ready; with no specs it flips
// immediately. A path that fails to materialize is logged and skipped
// rather than blocking readiness, since its queries can still be answered
// from cold caches. After a successful warmup the chain cache is persisted
// to the snapshot path, so the next boot warm-starts.
func (s *Server) PrecomputeBackground(specs []string) error {
	es := s.current()
	for _, spec := range specs {
		if _, err := metapath.Parse(es.g.Schema(), spec); err != nil {
			return err
		}
		s.st.recordSpec(spec)
	}
	if len(specs) == 0 {
		s.MarkReady()
		return nil
	}
	s.setState(StateWarming)
	s.st.warm(es, specs, s.MarkReady)
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing left to do but note it server-side.
		log.Println("server: encoding response:", err)
	}
}

// writeError maps domain errors to HTTP statuses and stable machine-
// readable codes: unknown objects are 404/not_found, malformed queries
// 400/bad_request, an expired per-request deadline 504/deadline_exceeded,
// a client that went away 499/canceled, everything else 500/internal.
func writeError(w http.ResponseWriter, err error) {
	status, code := errorStatusCode(err)
	writeJSON(w, status, api.Error{Error: err.Error(), Code: code})
}

// errorStatusCode maps a domain error to its HTTP status and stable code —
// shared by whole-request errors (writeError) and the per-slot errors of
// POST /v1/batch responses.
func errorStatusCode(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, hin.ErrUnknownNode):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, hin.ErrUnknownType),
		errors.Is(err, hin.ErrUnknownRelation),
		errors.Is(err, hin.ErrAmbiguous),
		errors.Is(err, metapath.ErrBadSyntax),
		errors.Is(err, metapath.ErrEmptyPath),
		errors.Is(err, metapath.ErrNotChained),
		errors.Is(err, baseline.ErrAsymmetricPath),
		errors.Is(err, core.ErrPlanNotApplicable),
		errors.Is(err, hin.ErrBadOp),
		errors.Is(err, relevance.ErrBadOptions),
		errors.Is(err, relevance.ErrNoPaths),
		errors.Is(err, relevance.ErrRefused),
		errors.Is(err, errBadRequest):
		return http.StatusBadRequest, "bad_request"
	}
	return http.StatusInternalServerError, "internal"
}

var errBadRequest = errors.New("bad request")

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe. It reports the lifecycle state by
// name — cold and warming answer 503 (do not route traffic yet); ready
// and reloading answer 200 (a reload keeps serving from the old graph).
// The body also carries the serving graph's fingerprint, so an operator
// can confirm from the probe alone which generation answered.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	es := s.current()
	body := api.Ready{
		Status:      s.State().String(),
		Fingerprint: fmt.Sprintf("%016x", es.fingerprint),
		WALSeq:      es.seq,
		// Ranks replica warmth: how long ago this process last saved or
		// imported a chain-cache snapshot.
		SnapshotAge: -1,
	}
	if t := s.st.snapSavedAt.Load(); t > 0 {
		body.SnapshotAge = time.Since(time.Unix(0, t)).Seconds()
	}
	s.follow.Load().describe(&body)
	status := http.StatusOK
	if !s.Ready() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	g := s.current().g
	var body api.Schema
	for _, t := range g.Schema().Types() {
		ab := ""
		if t.Abbrev != 0 {
			ab = string(t.Abbrev)
		}
		body.Types = append(body.Types, api.SchemaType{Name: t.Name, Abbrev: ab, Count: g.NodeCount(t.Name)})
	}
	for _, r := range g.Schema().Relations() {
		adj, err := g.Adjacency(r.Name)
		if err != nil {
			writeError(w, err)
			return
		}
		body.Relations = append(body.Relations, api.SchemaRelation{
			Name: r.Name, Source: r.Source, Target: r.Target, Edges: adj.NNZ(),
		})
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	es := s.current()
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":           es.g.TotalNodes(),
		"edges":           es.g.TotalEdges(),
		"fingerprint":     fmt.Sprintf("%016x", es.fingerprint),
		"cached_matrices": es.engine.CacheSize(),
		"cache":           es.engine.CacheStats(),
		"plans":           es.engine.PlanSelections(), // optimizer selections per plan kind
		// The configuration that produced the numbers above, so a stats
		// snapshot is interpretable on its own.
		"options": map[string]any{
			"cache_limit":          es.engine.CacheLimit(),
			"query_timeout_ms":     float64(s.queryTimeout) / float64(time.Millisecond),
			"max_inflight":         s.maxInflight,
			"max_path_steps":       s.maxPathSteps,
			"batch_max_queries":    s.maxBatchQueries,
			"batch_workers":        s.batchWorkers,
			"relevance_max_len":    s.relevanceLimits.MaxLen,
			"relevance_max_paths":  s.relevanceLimits.MaxPaths,
			"path_weights":         len(s.pathWeights),
			"slowlog_threshold_ms": float64(s.slowThreshold) / float64(time.Millisecond),
		},
	})
}

// handleSlowLog serves the ring-buffered slow-query log, newest first.
func (s *Server) handleSlowLog(w http.ResponseWriter, _ *http.Request) {
	if s.slowlog == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"enabled": false, "entries": []obs.SlowEntry{},
		})
		return
	}
	entries := s.slowlog.Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":      true,
		"threshold_ms": float64(s.slowlog.Threshold()) / float64(time.Millisecond),
		"total":        s.slowlog.Total(),
		"entries":      entries,
	})
}
