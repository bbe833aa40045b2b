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
// in-flight cap is shed with 429, and a timed-out exact query can degrade
// to the Monte Carlo estimator instead of failing outright.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hetesim/internal/baseline"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/rank"
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
	metDegraded = obs.Default().Counter("hetesim_http_degraded_total",
		"Queries answered by the Monte Carlo fallback after the exact plan timed out.")
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
	degradeWalks int           // Monte Carlo walks for degraded answers; 0 = disabled
	degradeGrace time.Duration // extra budget granted to the degraded plan
	defaultPlan  core.PlanKind // forced physical plan when a request has no ?plan=; "" = auto
	topKBudget   float64       // default topk-approx error budget; 0 = engine default

	slowThreshold time.Duration // slow-query log admission bar; 0 = disabled
	slowCapacity  int           // slow-query log ring size
	slowlog       *obs.SlowLog  // nil when disabled

	maxBatchQueries int // queries accepted per /v1/batch request; 0 = unlimited
	batchWorkers    int // batch scheduler worker bound; 0 = runtime default

	relevanceMaxLen   int                // longest enumerated path for /v1/relevance
	relevanceMaxPaths int                // candidate-path cap for /v1/relevance
	pathWeights       map[string]float64 // learned ensemble weights by path spec; nil = learned mode off

	inflight chan struct{}
	state    atomic.Int32 // ReadyState
	draining atomic.Bool  // shutdown drain: refuse mutations and reloads

	// Replication (follower-mode) state, owned by RunFollower — see
	// replicate.go. followCfg: follower mode is on; actingPrimary: the
	// router elected this very replica, so it accepts writes again;
	// followingPrimary: base URL currently being followed; lastCaughtUpAt:
	// unix nanos of the last confirmed fingerprint-matching catch-up;
	// diverged: the last stream-head comparison failed.
	followCfg        atomic.Bool
	actingPrimary    atomic.Bool
	followingPrimary atomic.Pointer[string]
	lastCaughtUpAt   atomic.Int64
	diverged         atomic.Bool
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

// WithDegradedTopK enables graceful degradation: when an exact hetesim
// /v1/topk or /v1/pair query exceeds its deadline, the server answers
// from `walks` Monte Carlo walks instead, marking the response
// "approximate": true. 0 (the default) disables the fallback.
func WithDegradedTopK(walks int) Option { return func(s *Server) { s.degradeWalks = walks } }

// WithRelevanceLimits bounds POST /v1/relevance path enumeration: paths of
// at most maxLen steps (0 keeps the default of 4), at most maxPaths
// candidates per query (0 keeps the default of 16). Requests asking beyond
// either limit are rejected with 400.
func WithRelevanceLimits(maxLen, maxPaths int) Option {
	return func(s *Server) {
		if maxLen > 0 {
			s.relevanceMaxLen = maxLen
		}
		if maxPaths > 0 {
			s.relevanceMaxPaths = maxPaths
		}
	}
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

// WithTopKErrorBudget sets the default error budget of the topk-approx
// plan for /v1/topk requests that carry no ?error_budget= override (the
// -topk-error-budget daemon flag). Must lie in (0, 1); a tighter (smaller)
// budget buys a higher embedding rank and a deeper exact re-rank. 0 (the
// default) keeps the engine's built-in budget.
func WithTopKErrorBudget(b float64) Option { return func(s *Server) { s.topKBudget = b } }

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
		st:                &store{fsys: snapshot.OS{}, logf: log.Printf, applied: make(map[string]uint64)},
		mux:               http.NewServeMux(),
		maxBody:           1 << 20,
		maxPathSteps:      128,
		maxBatchQueries:   1024,
		degradeGrace:      2 * time.Second,
		relevanceMaxLen:   4,
		relevanceMaxPaths: 16,
		slowThreshold:     time.Second,
		slowCapacity:      128,
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
	s.mux.HandleFunc("GET /v1/pair", s.handlePair)
	s.mux.HandleFunc("GET /v1/topk", s.handleTopK)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/relevance", s.handleRelevance)
	s.mux.HandleFunc("GET /v1/explain", s.handleExplain)
	s.mux.HandleFunc("GET /v1/why", s.handleWhy)
	s.mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/admin/edges", s.handleMutate)
	s.mux.HandleFunc("GET /v1/admin/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/admin/wal", s.handleWALTail)
	s.mux.HandleFunc("GET /v1/admin/graph", s.handleGraphFetch)
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
		"/v1/admin/reload", "/v1/admin/edges", "/v1/admin/snapshot",
		"/v1/admin/wal", "/v1/admin/graph":
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
func wantTrace(r *http.Request) bool {
	v := r.URL.Query().Get("trace")
	if v == "" {
		return false
	}
	b, err := strconv.ParseBool(v)
	return err == nil && b
}

// intParam reads an optional integer query parameter: def when absent, a
// bad-request error when it does not parse or falls below min.
func intParam(r *http.Request, name string, def, min int) (int, error) {
	v := r.URL.Query().Get(name)
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
		if s.slowlog != nil || wantTrace(r) {
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
					errorBody{Error: "internal server error", Code: "internal_panic"})
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
				errorBody{Error: "server is at its in-flight query limit", Code: "overloaded"})
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

type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
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
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
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
	body := map[string]any{
		"status":      s.State().String(),
		"fingerprint": fmt.Sprintf("%016x", es.fingerprint),
		"wal_seq":     es.seq,
	}
	// snapshot_age_seconds ranks replica warmth: how long ago this process
	// last saved or imported a chain-cache snapshot. -1 = never.
	if t := s.st.snapSavedAt.Load(); t > 0 {
		body["snapshot_age_seconds"] = time.Since(time.Unix(0, t)).Seconds()
	} else {
		body["snapshot_age_seconds"] = -1.0
	}
	s.replicationReadyFields(body)
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

type schemaBody struct {
	Types     []typeBody     `json:"types"`
	Relations []relationBody `json:"relations"`
}

type typeBody struct {
	Name   string `json:"name"`
	Abbrev string `json:"abbrev,omitempty"`
	Count  int    `json:"count"`
}

type relationBody struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Target string `json:"target"`
	Edges  int    `json:"edges"`
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	g := s.current().g
	var body schemaBody
	for _, t := range g.Schema().Types() {
		ab := ""
		if t.Abbrev != 0 {
			ab = string(t.Abbrev)
		}
		body.Types = append(body.Types, typeBody{Name: t.Name, Abbrev: ab, Count: g.NodeCount(t.Name)})
	}
	for _, r := range g.Schema().Relations() {
		adj, err := g.Adjacency(r.Name)
		if err != nil {
			writeError(w, err)
			return
		}
		body.Relations = append(body.Relations, relationBody{
			Name: r.Name, Source: r.Source, Target: r.Target, Edges: adj.NNZ(),
		})
	}
	writeJSON(w, http.StatusOK, body)
}

// statsCache merges the normalized and raw engines' cache snapshots, so
// operators see total cache pressure regardless of which engine served a
// query.
func addCacheInfo(a, b core.CacheInfo) core.CacheInfo {
	return core.CacheInfo{
		Transition: a.Transition + b.Transition,
		Edge:       a.Edge + b.Edge,
		Chain:      a.Chain + b.Chain,
		Evictions:  a.Evictions + b.Evictions,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	es := s.current()
	cache := addCacheInfo(es.engine.CacheStats(), es.raw.CacheStats())
	// Optimizer selections per plan kind, merged over the normalized and
	// raw engines (both serve hetesim queries).
	plans := es.engine.PlanSelections()
	for k, v := range es.raw.PlanSelections() {
		plans[k] += v
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":           es.g.TotalNodes(),
		"edges":           es.g.TotalEdges(),
		"fingerprint":     fmt.Sprintf("%016x", es.fingerprint),
		"cached_matrices": es.engine.CacheSize() + es.raw.CacheSize(),
		"cache":           cache,
		"plans":           plans,
		// The configuration that produced the numbers above, so a stats
		// snapshot is interpretable on its own.
		"options": map[string]any{
			"cache_limit":          es.engine.CacheLimit(),
			"degrade_walks":        s.degradeWalks,
			"query_timeout_ms":     float64(s.queryTimeout) / float64(time.Millisecond),
			"max_inflight":         s.maxInflight,
			"max_path_steps":       s.maxPathSteps,
			"batch_max_queries":    s.maxBatchQueries,
			"batch_workers":        s.batchWorkers,
			"relevance_max_len":    s.relevanceMaxLen,
			"relevance_max_paths":  s.relevanceMaxPaths,
			"path_weights":         len(s.pathWeights),
			"slowlog_threshold_ms": float64(s.slowThreshold) / float64(time.Millisecond),
			"topk_error_budget":    s.topKBudget,
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

// query holds the decoded common parameters of pair/topk requests.
type query struct {
	path      *metapath.Path
	source    string
	measure   string
	raw       bool
	plan      core.PlanKind // forced physical plan; PlanAuto lets the optimizer choose
	errBudget float64       // topk-approx error budget; 0 = server/engine default
}

func (s *Server) decodeQuery(es *engineSet, r *http.Request) (query, error) {
	q := r.URL.Query()
	spec := q.Get("path")
	if spec == "" {
		return query{}, fmt.Errorf("%w: missing path parameter", errBadRequest)
	}
	p, err := metapath.Parse(es.g.Schema(), spec)
	if err != nil {
		return query{}, err
	}
	if s.maxPathSteps > 0 && p.Len() > s.maxPathSteps {
		return query{}, fmt.Errorf("%w: path has %d steps, limit is %d", errBadRequest, p.Len(), s.maxPathSteps)
	}
	source := q.Get("source")
	if source == "" {
		return query{}, fmt.Errorf("%w: missing source parameter", errBadRequest)
	}
	measure := q.Get("measure")
	if measure == "" {
		measure = "hetesim"
	}
	switch measure {
	case "hetesim", "pcrw", "pathsim":
	default:
		return query{}, fmt.Errorf("%w: unknown measure %q", errBadRequest, measure)
	}
	raw := false
	if v := q.Get("raw"); v != "" {
		raw, err = strconv.ParseBool(v)
		if err != nil {
			return query{}, fmt.Errorf("%w: raw=%q", errBadRequest, v)
		}
		if measure != "hetesim" {
			return query{}, fmt.Errorf("%w: raw applies only to hetesim", errBadRequest)
		}
	}
	plan := core.PlanAuto
	if v := q.Get("plan"); v != "" {
		plan, err = core.ParsePlanKind(v)
		if err != nil {
			return query{}, err
		}
		if measure != "hetesim" && plan != core.PlanAuto {
			return query{}, fmt.Errorf("%w: plan applies only to hetesim", errBadRequest)
		}
	} else if s.defaultPlan != "" {
		plan = s.defaultPlan
	}
	budget := s.topKBudget
	if v := q.Get("error_budget"); v != "" {
		budget, err = strconv.ParseFloat(v, 64)
		if err != nil || budget <= 0 || budget >= 1 {
			return query{}, fmt.Errorf("%w: error_budget=%q outside (0,1)", errBadRequest, v)
		}
		if measure != "hetesim" {
			return query{}, fmt.Errorf("%w: error_budget applies only to hetesim", errBadRequest)
		}
	}
	return query{path: p, source: source, measure: measure, raw: raw, plan: plan, errBudget: budget}, nil
}

// degradeCtx returns a fresh context for the degraded plan of a request
// whose deadline already expired: it inherits the request's values but
// not its (spent) deadline, bounded by the degradation grace budget.
func (s *Server) degradeCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.WithoutCancel(r.Context()), s.degradeGrace)
}

// shouldDegrade reports whether a failed exact query is eligible for the
// Monte Carlo fallback: degradation is enabled, the measure is hetesim,
// and the failure was the deadline — not a client disconnect, where there
// is no one left to answer.
func (s *Server) shouldDegrade(q query, err error) bool {
	return s.degradeWalks > 0 && q.measure == "hetesim" && errors.Is(err, context.DeadlineExceeded)
}

type pairBody struct {
	Path        string        `json:"path"`
	Source      string        `json:"source"`
	Target      string        `json:"target"`
	Measure     string        `json:"measure"`
	Score       float64       `json:"score"`
	Approximate bool          `json:"approximate,omitempty"`
	Plan        *planInfoBody `json:"plan,omitempty"`
	Trace       *obs.Report   `json:"trace,omitempty"`
}

// planInfoBody reports which physical plan answered a hetesim query and
// what the optimizer estimated it would cost.
type planInfoBody struct {
	Kind     string  `json:"kind"`
	EstFlops float64 `json:"est_flops"`
	Forced   bool    `json:"forced,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

func planInfo(d core.PlanDecision) *planInfoBody {
	return &planInfoBody{Kind: string(d.Kind), EstFlops: d.Est.Flops, Forced: d.Forced, Reason: d.Reason}
}

// reactivePlanInfo describes the Monte Carlo fallback taken after an exact
// plan already blew its deadline mid-execution.
func reactivePlanInfo() *planInfoBody {
	return &planInfoBody{Kind: string(core.PlanMonteCarlo), Reason: "degraded after exact plan exceeded deadline"}
}

func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	es := s.current()
	tr := obs.FromContext(ctx)
	sp := tr.Start("decode")
	q, err := s.decodeQuery(es, r)
	if err != nil {
		sp.End()
		writeError(w, err)
		return
	}
	target := r.URL.Query().Get("target")
	sp.End()
	if target == "" {
		writeError(w, fmt.Errorf("%w: missing target parameter", errBadRequest))
		return
	}
	var score float64
	var plan *planInfoBody
	approximate := false
	switch q.measure {
	case "hetesim":
		var src, dst int
		src, err = es.g.NodeIndex(q.path.Source(), q.source)
		if err == nil {
			dst, err = es.g.NodeIndex(q.path.Target(), target)
		}
		if err == nil {
			var d core.PlanDecision
			score, d, err = es.hetesim(q.raw).PairWithPlan(ctx, q.path, src, dst,
				core.PlanOptions{Force: q.plan, Walks: s.degradeWalks})
			if d.Kind != "" {
				plan = planInfo(d)
			}
			if err == nil && d.Approximate {
				approximate = true
				if !d.Forced {
					metDegraded.Inc() // proactive deadline-driven degrade
				}
			}
		}
	case "pcrw":
		score, err = es.pcrw.Pair(ctx, q.path, q.source, target)
	case "pathsim":
		score, err = es.pathsim.Pair(ctx, q.path, q.source, target)
	}
	if err != nil && s.shouldDegrade(q, err) {
		tr.Event("degrade", map[string]string{"reason": "deadline_exceeded"})
		score, err = s.degradedPair(es, r, q, target)
		approximate = err == nil
		if approximate {
			metDegraded.Inc()
			plan = reactivePlanInfo()
		}
	}
	if err != nil {
		writeError(w, err)
		return
	}
	body := pairBody{
		Path: q.path.String(), Source: q.source, Target: target,
		Measure: q.measure, Score: score, Approximate: approximate, Plan: plan,
	}
	if wantTrace(r) {
		body.Trace = tr.Report(tr.Elapsed())
	}
	writeJSON(w, http.StatusOK, body)
}

// degradedPair estimates a pair score from Monte Carlo walks after the
// exact plan blew its deadline.
func (s *Server) degradedPair(es *engineSet, r *http.Request, q query, target string) (float64, error) {
	src, err := es.g.NodeIndex(q.path.Source(), q.source)
	if err != nil {
		return 0, err
	}
	dst, err := es.g.NodeIndex(q.path.Target(), target)
	if err != nil {
		return 0, err
	}
	ctx, cancel := s.degradeCtx(r)
	defer cancel()
	res, err := es.hetesim(q.raw).PairMonteCarlo(ctx, q.path, src, dst, s.degradeWalks, 0)
	if err != nil {
		return 0, err
	}
	return res.Score, nil
}

type topKBody struct {
	Path        string        `json:"path"`
	Source      string        `json:"source"`
	Measure     string        `json:"measure"`
	Approximate bool          `json:"approximate,omitempty"`
	Plan        *planInfoBody `json:"plan,omitempty"`
	Results     []hitBody     `json:"results"`
	Trace       *obs.Report   `json:"trace,omitempty"`
}

type hitBody struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

type explainBody struct {
	Path    string     `json:"path"`
	Queries int        `json:"queries"`
	Report  string     `json:"report"`
	Plans   []planBody `json:"plans"`
}

type planBody struct {
	Kind        string  `json:"kind"`
	Flops       float64 `json:"flops"`
	Materialize float64 `json:"materialize"`
	Description string  `json:"description"`
}

type whyBody struct {
	Path          string             `json:"path"`
	Source        string             `json:"source"`
	Target        string             `json:"target"`
	Score         float64            `json:"score"`
	Contributions []contributionBody `json:"contributions"`
}

type contributionBody struct {
	Label    string  `json:"label"`
	Value    float64 `json:"value"`
	Fraction float64 `json:"fraction"`
}

// handleWhy explains a pair's HeteSim score by its top meeting-object
// contributions.
func (s *Server) handleWhy(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	es := s.current()
	q, err := s.decodeQuery(es, r)
	if err != nil {
		writeError(w, err)
		return
	}
	if q.measure != "hetesim" {
		writeError(w, fmt.Errorf("%w: why applies only to hetesim", errBadRequest))
		return
	}
	target := r.URL.Query().Get("target")
	if target == "" {
		writeError(w, fmt.Errorf("%w: missing target parameter", errBadRequest))
		return
	}
	k, err := intParam(r, "k", 10, 1)
	if err != nil {
		writeError(w, err)
		return
	}
	src, err := es.g.NodeIndex(q.path.Source(), q.source)
	if err != nil {
		writeError(w, err)
		return
	}
	dst, err := es.g.NodeIndex(q.path.Target(), target)
	if err != nil {
		writeError(w, err)
		return
	}
	score, contribs, err := es.hetesim(q.raw).PairContributions(ctx, q.path, src, dst, k)
	if err != nil {
		writeError(w, err)
		return
	}
	body := whyBody{Path: q.path.String(), Source: q.source, Target: target, Score: score}
	for _, c := range contribs {
		body.Contributions = append(body.Contributions, contributionBody{
			Label: c.Label, Value: c.Value, Fraction: c.Fraction,
		})
	}
	writeJSON(w, http.StatusOK, body)
}

// handleExplain exposes the HeteSim query planner: the estimated cost of
// every physical plan for a path, amortized over an expected query count.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	es := s.current()
	spec := r.URL.Query().Get("path")
	if spec == "" {
		writeError(w, fmt.Errorf("%w: missing path parameter", errBadRequest))
		return
	}
	p, err := metapath.Parse(es.g.Schema(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	queries, err := intParam(r, "queries", 1, 1)
	if err != nil {
		writeError(w, err)
		return
	}
	report, plans, err := es.engine.Explain(p, queries)
	if err != nil {
		writeError(w, err)
		return
	}
	body := explainBody{Path: p.String(), Queries: queries, Report: report}
	for _, pl := range plans {
		body.Plans = append(body.Plans, planBody{
			Kind: string(pl.Kind), Flops: pl.Flops,
			Materialize: pl.Materialize, Description: pl.Description,
		})
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	es := s.current()
	tr := obs.FromContext(ctx)
	sp := tr.Start("decode")
	q, err := s.decodeQuery(es, r)
	sp.End()
	if err != nil {
		writeError(w, err)
		return
	}
	k, err := intParam(r, "k", 10, 1)
	if err != nil {
		writeError(w, err)
		return
	}
	var scores []float64
	var hits []hitBody
	var plan *planInfoBody
	approximate := false
	ranked := false
	switch q.measure {
	case "hetesim":
		// Top-k hetesim goes through the top-k planner, which can choose
		// the heap-pruned exact scan or — under a deadline or a forced
		// ?plan=topk-approx — the low-rank embedding candidate generator
		// with exact re-ranking.
		var src int
		src, err = es.g.NodeIndex(q.path.Source(), q.source)
		if err == nil {
			var d core.PlanDecision
			var top []core.Scored
			top, d, err = es.hetesim(q.raw).TopKSearchWithPlan(ctx, q.path, src, k, 0,
				core.PlanOptions{Force: q.plan, Walks: s.degradeWalks, ErrorBudget: q.errBudget})
			if d.Kind != "" {
				plan = planInfo(d)
			}
			if err == nil {
				hits = topKHits(es.g, q.path.Target(), top, k)
				ranked = true
				if d.Approximate {
					approximate = true
					if !d.Forced {
						metDegraded.Inc() // proactive deadline-driven degrade
					}
				}
			}
		}
	case "pcrw":
		scores, err = es.pcrw.SingleSource(ctx, q.path, q.source)
	case "pathsim":
		scores, err = es.pathsim.SingleSource(ctx, q.path, q.source)
	}
	if err != nil && s.shouldDegrade(q, err) {
		tr.Event("degrade", map[string]string{"reason": "deadline_exceeded"})
		scores, err = s.degradedTopK(es, r, q)
		approximate = err == nil
		ranked = false
		if approximate {
			metDegraded.Inc()
			plan = reactivePlanInfo()
		}
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if !ranked {
		sp = tr.Start("rank")
		hits = denseHits(es.g, q.path.Target(), scores, k)
		sp.End()
	}
	body := topKBody{Path: q.path.String(), Source: q.source, Measure: q.measure, Approximate: approximate, Plan: plan}
	body.Results = append(body.Results, hits...)
	if wantTrace(r) {
		body.Trace = tr.Report(tr.Elapsed())
	}
	writeJSON(w, http.StatusOK, body)
}

// degradedTopK estimates single-source scores from Monte Carlo walks
// after the exact plan blew its deadline. The walk-frequency ranking
// approximates the reaching-distribution ordering, so the response is
// marked approximate.
func (s *Server) degradedTopK(es *engineSet, r *http.Request, q query) ([]float64, error) {
	src, err := es.g.NodeIndex(q.path.Source(), q.source)
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.degradeCtx(r)
	defer cancel()
	return es.hetesim(q.raw).SingleSourceMonteCarlo(ctx, q.path, src, s.degradeWalks, 0)
}

// denseHits ranks a dense score vector over a type (pcrw, pathsim, the Monte
// Carlo fallback) into response hits, zeros kept, naming only the k winners.
func denseHits(g *hin.Graph, typ string, scores []float64, k int) []hitBody {
	top := rank.TopK(scores, k)
	hits := make([]hitBody, len(top))
	for p, i := range top {
		hits[p] = hitBody{ID: nodeID(g, typ, i), Score: scores[i]}
	}
	return hits
}

// topKHits maps engine top-k results onto response hits. The engine drops
// zero scores while the dense ranker (rank.TopK) keeps them, so to preserve
// the response contract the tail is padded with zero-score targets in
// ascending index order — every target absent from the engine's result has
// a score of exactly zero.
func topKHits(g *hin.Graph, typ string, top []core.Scored, k int) []hitBody {
	n := g.NodeCount(typ)
	if k > n {
		k = n
	}
	hits := make([]hitBody, 0, k)
	for _, t := range top {
		hits = append(hits, hitBody{ID: nodeID(g, typ, t.Index), Score: t.Score})
	}
	if len(hits) >= k {
		return hits // nothing to pad
	}
	seen := make(map[int]bool, len(top))
	for _, t := range top {
		seen[t.Index] = true
	}
	for i := 0; len(hits) < k && i < n; i++ {
		if !seen[i] {
			hits = append(hits, hitBody{ID: nodeID(g, typ, i)})
		}
	}
	return hits
}

// nodeID names node i of a type without copying the type's whole id list
// (hin.Graph.NodeIDs: 270 KB of garbage per top-k answer at paper scale).
func nodeID(g *hin.Graph, typ string, i int) string {
	id, _ := g.NodeID(typ, i) // in range: i indexes a score vector over g
	return id
}
