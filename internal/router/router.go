package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/obs"
	"hetesim/internal/relevance"
)

// Router observability: every counter the acceptance story needs — retries,
// hedges, breaker transitions, routing decisions — lands in the process
// registry, so the router's GET /metrics is the aggregated fleet view.
var (
	metRequests = obs.Default().CounterVec("hetesim_router_requests_total",
		"Requests served by the router, by route and status.", "route", "status")
	metRetries = obs.Default().Counter("hetesim_router_retries_total",
		"Upstream attempts beyond the first for a routed request.")
	metHedges = obs.Default().Counter("hetesim_router_hedges_total",
		"Hedge requests fired after the p99-derived delay.")
	metHedgeWins = obs.Default().Counter("hetesim_router_hedge_wins_total",
		"Routed requests answered by the hedge instead of the primary.")
	metBreaker = obs.Default().CounterVec("hetesim_router_breaker_transitions_total",
		"Circuit-breaker transitions, by replica and new state.", "replica", "to")
	metRouting = obs.Default().CounterVec("hetesim_router_routing_total",
		"Routing decisions: owner (hash owner), fallback (owner down, next in rendezvous order), forced (no replica admitted, last-ditch).", "decision")
	metReplicaHealthy = obs.Default().GaugeVec("hetesim_router_replica_healthy",
		"1 when the replica's last /readyz probe succeeded.", "replica")
	metReplicaWALSeq = obs.Default().GaugeVec("hetesim_router_replica_wal_seq",
		"Last acked WAL sequence the replica reported.", "replica")
	metReplicaBreaker = obs.Default().GaugeVec("hetesim_router_replica_breaker_open",
		"1 when the replica's circuit breaker is open or half-open.", "replica")
	metFanout = obs.Default().Counter("hetesim_router_batch_fanout_total",
		"Per-replica sub-batches fanned out for /v1/batch and scattered /v1/relevance requests.")
	metDials = obs.Default().Counter("hetesim_router_upstream_dials_total",
		"New connections the router's own upstream transport dialed to replicas; a steady climb under steady load is connection churn.")
)

// upstreamIdlePerHost is how many idle connections the router keeps to each
// replica. A routed request holds one connection per replica it reaches
// (two while a hedge races), so the fan-out to one replica is about as wide
// as the router's concurrent client requests; http.DefaultTransport keeps 2
// per host and closes every connection past those after one request. This
// is the clone's whole MaxIdleConns, which still bounds idle connections
// across the fleet.
const upstreamIdlePerHost = 100

// newUpstreamTransport is the transport a router relays through when its
// client names none: http.DefaultTransport's settings, an idle pool per
// replica that covers the router's fan-out, and every dial counted.
func newUpstreamTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns, t.MaxIdleConnsPerHost = upstreamIdlePerHost, upstreamIdlePerHost
	dial := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		metDials.Inc()
		return dial(ctx, network, addr)
	}
	return t
}

// Router fronts a fleet of hetesimd replicas. Safe for concurrent use.
type Router struct {
	replicas []*replica
	client   *http.Client
	upstream *http.Transport // built by New for a client that named no transport; Close closes its idle connections

	policy           RetryPolicy
	hedge            bool
	hedgeMin         time.Duration
	hedgeMax         time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	healthEvery      time.Duration
	maxBody          int64

	relevanceLimits relevance.Limits
	pathWeights     map[string]float64

	// Write routing (see primary.go).
	pinnedPrimary string
	maxReadLag    time.Duration
	primary       atomic.Pointer[replica]
	maxAckedSeq   atomic.Uint64

	schema atomic.Pointer[hin.Schema] // set by option or fetched at Start; nil = raw-spec keys
	logf   func(string, ...any)

	// The health prober Start launches: stopProber cancels it and
	// proberDone is closed once it has returned (Close).
	stopProber context.CancelFunc
	proberDone chan struct{}

	mux *http.ServeMux
}

// Option configures a Router.
type Option func(*Router)

// WithClient substitutes the upstream HTTP client (fault-injection tests
// wrap its transport in chaos.Transport). A client with its own Transport is
// used as is, and the caller owns its connections; one with none (e.g. only
// a Timeout) relays through the pooled transport the router owns.
func WithClient(c *http.Client) Option { return func(r *Router) { r.client = c } }

// WithRetryPolicy sets the per-request upstream retry policy.
func WithRetryPolicy(p RetryPolicy) Option { return func(r *Router) { r.policy = p } }

// WithHedging enables hedged reads: when the primary has not answered
// after its p99 latency (clamped to [minDelay, maxDelay]), a second
// request races it on the next replica in rendezvous order.
func WithHedging(minDelay, maxDelay time.Duration) Option {
	return func(r *Router) { r.hedge, r.hedgeMin, r.hedgeMax = true, minDelay, maxDelay }
}

// WithBreaker tunes the per-replica circuit breaker: open after threshold
// consecutive failures, probe half-open after cooldown. threshold 0
// disables breaking.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(r *Router) { r.breakerThreshold, r.breakerCooldown = threshold, cooldown }
}

// WithHealthInterval sets how often each replica's /readyz is probed.
func WithHealthInterval(d time.Duration) Option { return func(r *Router) { r.healthEvery = d } }

// WithSchema pins the network schema used to canonicalize path keys,
// instead of fetching it from a replica at Start.
func WithSchema(s *hin.Schema) Option { return func(r *Router) { r.schema.Store(s) } }

// WithRelevanceLimits bounds the router-side path enumeration of scattered
// /v1/relevance queries (defaults 4 and 16, mirroring the server).
func WithRelevanceLimits(maxLen, maxPaths int) Option {
	return func(r *Router) { r.relevanceLimits = r.relevanceLimits.With(maxLen, maxPaths) }
}

// WithPathWeights supplies learned ensemble weights for scattered
// relevance queries in "learned" weighting mode.
func WithPathWeights(w map[string]float64) Option { return func(r *Router) { r.pathWeights = w } }

// WithLogf sets the router's background logger.
func WithLogf(logf func(string, ...any)) Option { return func(r *Router) { r.logf = logf } }

// New creates a router over the given replica base URLs.
func New(replicaURLs []string, opts ...Option) (*Router, error) {
	if len(replicaURLs) == 0 {
		return nil, errors.New("router: need at least one replica URL")
	}
	r := &Router{
		client:           &http.Client{Timeout: 30 * time.Second},
		policy:           RetryPolicy{Retries: 3, Base: 50 * time.Millisecond, MaxWait: 2 * time.Second},
		breakerThreshold: 5,
		breakerCooldown:  2 * time.Second,
		healthEvery:      2 * time.Second,
		maxBody:          1 << 20,
		maxReadLag:       30 * time.Second,
		relevanceLimits:  relevance.Limits{MaxLen: 4, MaxPaths: 16},
		logf:             func(string, ...any) {},
		mux:              http.NewServeMux(),
	}
	for _, o := range opts {
		o(r)
	}
	if r.client.Transport == nil {
		r.upstream = newUpstreamTransport()
		c := *r.client
		c.Transport = r.upstream
		r.client = &c
	}
	seen := make(map[string]bool)
	for _, u := range replicaURLs {
		rep := newReplica(u, r.breakerThreshold, r.breakerCooldown)
		if seen[rep.base] {
			return nil, fmt.Errorf("router: duplicate replica %s", rep.base)
		}
		seen[rep.base] = true
		r.replicas = append(r.replicas, rep)
	}
	if r.pinnedPrimary != "" {
		p := strings.TrimRight(r.pinnedPrimary, "/")
		if !seen[p] {
			return nil, fmt.Errorf("router: pinned primary %s is not a fleet member", r.pinnedPrimary)
		}
		r.pinnedPrimary = p
	}
	r.mux.HandleFunc("GET /healthz", r.handleHealth)
	r.mux.HandleFunc("GET /readyz", r.handleReady)
	r.mux.Handle("GET /metrics", obs.Default().Handler())
	r.mux.HandleFunc("GET /v1/admin/replicas", r.handleReplicas)
	r.mux.HandleFunc("GET /v1/admin/primary", r.handlePrimary)
	r.mux.HandleFunc("POST /v1/admin/edges", r.handleWrite)
	r.mux.HandleFunc("GET /v1/pair", r.proxyQuery)
	r.mux.HandleFunc("GET /v1/topk", r.proxyQuery)
	r.mux.HandleFunc("GET /v1/explain", r.proxyQuery)
	r.mux.HandleFunc("GET /v1/why", r.proxyQuery)
	r.mux.HandleFunc("GET /v1/schema", r.proxyAny)
	r.mux.HandleFunc("GET /v1/stats", r.proxyAny)
	r.mux.HandleFunc("POST /v1/batch", r.handleBatch)
	r.mux.HandleFunc("POST /v1/relevance", r.handleRelevance)
	return r, nil
}

// Start probes every replica once, fetches the schema from the fleet when
// none was pinned, and launches the periodic health checker (stopped by
// ctx or Close). It succeeds even with the whole fleet down — replicas join
// as their probes start passing, and the schema fetch is retried every
// round until one answers. Call it once; the caller that starts the router
// owns it and closes it.
func (r *Router) Start(ctx context.Context) {
	ctx, r.stopProber = context.WithCancel(ctx)
	r.proberDone = make(chan struct{})
	if err := r.refresh(ctx); err != nil {
		r.logf("router: schema fetch failed (path keys stay raw): %v", err)
	}
	go func() {
		defer close(r.proberDone)
		t := time.NewTicker(r.healthEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				r.refresh(ctx)
			}
		}
	}()
}

// Close stops the health checker Start launched and waits for it to
// return, so nothing the router logs in the background arrives after Close
// returns, and then closes the idle connections of the transport the router
// owns (a caller's client is left alone); a connection still carrying a
// request closes as that request ends, unless the router has sent another
// request since. Requests are still routed, by the health last probed, on
// fresh connections. A second Close does nothing more.
func (r *Router) Close() {
	if r.stopProber != nil {
		r.stopProber()
		<-r.proberDone
	}
	if r.upstream != nil {
		r.upstream.CloseIdleConnections()
	}
}

// refresh is one health round: probe the fleet, then fetch the schema if
// the router still has none.
func (r *Router) refresh(ctx context.Context) error {
	r.probeAll(ctx)
	if r.schema.Load() != nil {
		return nil
	}
	s, err := r.fetchSchema(ctx)
	if err == nil {
		r.schema.Store(s)
	}
	return err
}

func (r *Router) probeAll(ctx context.Context) {
	pctx, cancel := context.WithTimeout(ctx, r.healthEvery)
	defer cancel()
	for _, rep := range r.replicas {
		ok := rep.probe(pctx, r.client)
		h := 0.0
		if ok {
			h = 1
		}
		metReplicaHealthy.With(rep.base).Set(h)
		metReplicaWALSeq.With(rep.base).Set(float64(rep.walSeq.Load()))
		open := 0.0
		if rep.state.Load() != breakerClosed {
			open = 1
		}
		metReplicaBreaker.With(rep.base).Set(open)
	}
	r.detectDivergence()
	r.electPrimary()
}

// Handler returns the router's HTTP handler tree.
func (r *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		if req.Body != nil && r.maxBody > 0 {
			req.Body = http.MaxBytesReader(sw, req.Body, r.maxBody)
		}
		r.mux.ServeHTTP(sw, req)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		metRequests.With(routeLabel(req.URL.Path), strconv.Itoa(status)).Inc()
	})
}

// routeLabel maps paths to a bounded label set (constant /metrics
// cardinality no matter what clients probe).
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/readyz", "/metrics",
		"/v1/pair", "/v1/topk", "/v1/batch", "/v1/relevance",
		"/v1/schema", "/v1/stats", "/v1/explain", "/v1/why",
		"/v1/admin/replicas", "/v1/admin/primary", "/v1/admin/edges":
		return path
	}
	return "other"
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// canonicalKey maps a path spec to its routing key. With a schema, a path
// and its reverse hash identically (HS(a,b|P) = HS(b,a|P⁻¹), Property 1 —
// both directions hit the same replica's cache); without one, the raw spec
// is the key, which still gives stable placement, just without
// reverse-collapsing.
func (r *Router) canonicalKey(spec string) string {
	if schema := r.schema.Load(); schema != nil {
		if p, err := metapath.Parse(schema, spec); err == nil {
			return pathKey(p)
		}
	}
	return spec
}

// pathKey is a parsed path's routing key: the lesser of its and its
// reverse's string form.
func pathKey(p *metapath.Path) string {
	return min(p.String(), p.Reverse().String())
}

// rank orders the replicas for a key: rendezvous (highest-random-weight)
// hashing — each replica scores fnv64(key ‖ 0 ‖ base), descending — then a
// stable sort by staleness class, so fresh replicas keep their hash
// affinity among themselves while badly lagging or diverged followers
// drop to the back of the line. Every router instance computes the same
// order with no coordination, and removing a replica only moves the keys
// it owned.
func (r *Router) rank(key string) []*replica {
	type scored struct {
		rep   *replica
		score uint64
	}
	s := make([]scored, len(r.replicas))
	for i, rep := range r.replicas {
		h := fnv.New64a()
		io.WriteString(h, key)
		h.Write([]byte{0})
		io.WriteString(h, rep.base)
		s[i] = scored{rep, h.Sum64()}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].score > s[j].score })
	out := make([]*replica, len(s))
	for i, sc := range s {
		out[i] = sc.rep
	}
	r.sortByFreshness(out)
	return out
}

// result is a fully buffered upstream response.
type result struct {
	status int
	header http.Header
	body   []byte
	rep    *replica
	final  bool          // non-retryable: this is the answer
	hedged bool          // answered by the hedge, not the primary
	took   time.Duration // request sent → body read
}

var (
	errNoReplicas = errors.New("router: no replicas available")
	errStaleFleet = errors.New("router: no replica has reached the requested wal_seq")
)

// forward routes one buffered request over order, the rendezvous order rank
// gave its key: pick a replica (healthy + breaker-admitted first, hash owner
// preferred), try it with an optional hedge, and on retryable failure back
// off and move to the next candidate. minSeq > 0 is the client's
// read-your-writes floor: only replicas whose last probed (or write-acked)
// wal_seq has reached it are candidates, with no forced fallback — a stale
// answer would silently violate the session guarantee, so the caller turns
// errStaleFleet into a 503 the client retries. It returns the first final
// response; when every attempt fails, the last retryable response (so the
// client sees the upstream's 429/503 with its Retry-After) or
// errNoReplicas.
func (r *Router) forward(ctx context.Context, order []*replica, minSeq uint64, build func(base string) (*http.Request, error)) (*result, error) {
	attempts := r.policy.Retries + 1
	var last *result
	for attempt := 0; attempt < attempts; attempt++ {
		rep, forced := r.pick(order, attempt, minSeq)
		if rep == nil {
			break
		}
		switch {
		case forced:
			metRouting.With("forced").Inc()
		case rep == order[0]:
			metRouting.With("owner").Inc()
		default:
			metRouting.With("fallback").Inc()
		}
		if attempt > 0 {
			metRetries.Inc()
			retryAfter := time.Duration(0)
			if last != nil {
				if ra, ok := ParseRetryAfter(last.header.Get("Retry-After")); ok {
					retryAfter = ra
				}
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(r.policy.Wait(attempt, retryAfter)):
			}
		}
		res, err := r.attempt(ctx, rep, order, minSeq, build)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		if res.final {
			if res.hedged {
				metHedgeWins.Inc()
			}
			res.rep.lat.observe(res.took) // reads only: the window sizes the hedge delay
			return res, nil
		}
		last = res
	}
	if last != nil {
		return last, nil
	}
	if minSeq > 0 {
		return nil, errStaleFleet
	}
	return nil, errNoReplicas
}

// pick chooses the replica for one attempt: walk the rendezvous order
// starting at the attempt's offset (so retries rotate away from the
// replica that just failed) and take the first healthy, breaker-admitted
// one at or past minSeq. When nothing is admitted and there is no seq
// floor the attempt's own slot is forced — a last-ditch probe beats
// answering 503 from a router that tried nothing. With a floor there is
// no forcing: serving the request from a replica below minSeq would
// break read-your-writes silently, which is worse than a retryable 503.
func (r *Router) pick(order []*replica, attempt int, minSeq uint64) (rep *replica, forced bool) {
	n := len(order)
	if n == 0 {
		return nil, false
	}
	now := time.Now()
	for i := 0; i < n; i++ {
		c := order[(attempt+i)%n]
		if c.healthy.Load() && c.walSeq.Load() >= minSeq && c.allow(now, r.transitionFn(c)) {
			return c, false
		}
	}
	if minSeq > 0 {
		return nil, false
	}
	return order[attempt%n], true
}

func (r *Router) transitionFn(rep *replica) func(string) {
	return func(to string) {
		metBreaker.With(rep.base, to).Inc()
		open := 0.0
		if to != "closed" {
			open = 1
		}
		metReplicaBreaker.With(rep.base).Set(open)
	}
}

// attempt runs one logical try against primary, racing a hedge on the
// next distinct replica when hedging is on and the primary is slower than
// its p99-derived delay. The first final response wins; a retryable
// outcome waits for the other leg before giving up the attempt.
func (r *Router) attempt(ctx context.Context, primary *replica, order []*replica, minSeq uint64, build func(string) (*http.Request, error)) (*result, error) {
	if !r.hedge || len(order) < 2 {
		return r.tryOnce(ctx, primary, build, false)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res *result
		err error
	}
	ch := make(chan outcome, 2)
	launched := 1
	go func() {
		res, err := r.tryOnce(cctx, primary, build, false)
		ch <- outcome{res, err}
	}()
	timer := time.NewTimer(primary.hedgeDelay(r.hedgeMin, r.hedgeMax))
	defer timer.Stop()
	var last outcome
	for {
		select {
		case <-timer.C:
			if sec := r.hedgeTarget(order, primary, minSeq); sec != nil {
				metHedges.Inc()
				launched++
				go func() {
					res, err := r.tryOnce(cctx, sec, build, true)
					ch <- outcome{res, err}
				}()
			}
		case o := <-ch:
			if o.err == nil && o.res.final {
				return o.res, nil
			}
			last = o
			launched--
			if launched == 0 {
				return last.res, last.err
			}
			// One leg failed retryably; stop the timer from adding more and
			// wait for the other leg.
			timer.Stop()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// hedgeTarget picks the hedge replica: the first healthy, admitted replica
// in rendezvous order that is not the primary and satisfies the client's
// wal_seq floor.
func (r *Router) hedgeTarget(order []*replica, primary *replica, minSeq uint64) *replica {
	now := time.Now()
	for _, c := range order {
		if c == primary {
			continue
		}
		if c.healthy.Load() && c.walSeq.Load() >= minSeq && c.allow(now, r.transitionFn(c)) {
			return c
		}
	}
	return nil
}

// tryOnce performs exactly one upstream request against rep and buffers
// the response — the one place the router's request path touches the
// network, for routed reads and for the never-retried relay of a write
// alike. Transport errors and torn bodies count against the breaker; any
// complete HTTP response counts as replica success (a 400 is the client's
// problem, not the replica's), but retryable statuses count as failures
// and leave the result non-final so a reading caller moves on.
func (r *Router) tryOnce(ctx context.Context, rep *replica, build func(string) (*http.Request, error), hedged bool) (*result, error) {
	req, err := build(rep.base)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := r.client.Do(req.WithContext(ctx))
	if err != nil {
		rep.onFailure(time.Now(), r.transitionFn(rep))
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		rep.onFailure(time.Now(), r.transitionFn(rep))
		return nil, fmt.Errorf("router: reading %s response: %w", rep.base, err)
	}
	res := &result{
		status: resp.StatusCode,
		header: resp.Header,
		body:   body,
		rep:    rep,
		final:  !RetryableStatus(resp.StatusCode),
		hedged: hedged,
		took:   time.Since(start),
	}
	if res.final {
		rep.onSuccess(r.transitionFn(rep))
	} else {
		rep.onFailure(time.Now(), r.transitionFn(rep))
	}
	return res, nil
}

// writeResult relays a buffered upstream response to the client, with the
// headers that mean something across the hop.
func writeResult(w http.ResponseWriter, res *result) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Hetesim-Primary"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Hetesim-Replica", res.rep.base)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// badRequest answers a request the router itself could not read.
func badRequest(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, api.Error{Error: msg, Code: "bad_request"})
}

// unrouted describes a request forward could not place — the one function
// that turns errStaleFleet (or an exhausted fleet) into what the client is
// told. Whole requests answer it as a 503, with Retry-After exactly when
// retrying can help: a floor no replica has reached yet will be reached. A
// batch slot or scattered ensemble member (slot = true) carries the same
// distinction as its own error and code inside a 200.
func unrouted(err error, slot bool) (e api.Error, retryAfter string) {
	e = api.Error{Error: "no replica could answer: ", Code: "no_replicas"}
	if slot {
		e = api.Error{Error: "no replica could serve the path group: ", Code: "replica_unavailable"}
	}
	if errors.Is(err, errStaleFleet) {
		e.Code, retryAfter = "stale_replicas", "1"
		if !slot {
			e.Error = "read-your-writes floor not yet replicated: "
		}
	}
	e.Error += err.Error()
	return e, retryAfter
}

// relay forwards one read — placed by key, under the client's
// read-your-writes floor — and answers with the replica's response or the
// refusal: what every whole-request proxy does.
func (r *Router) relay(w http.ResponseWriter, req *http.Request, key string, build func(base string) (*http.Request, error)) {
	floor, ok := minWALSeq(w, req)
	if !ok {
		return
	}
	res, err := r.forward(req.Context(), r.rank(key), floor, build)
	if err != nil {
		e, retryAfter := unrouted(err, false)
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		writeJSON(w, http.StatusServiceUnavailable, e)
		return
	}
	writeResult(w, res)
}

// minWALSeq parses the client's read-your-writes floor, X-Min-WAL-Seq: 0
// (or no header) is no floor; a value that is not an unsigned 64-bit
// integer is refused with 400 — never read as "no floor" or wrapped into a
// lower one, either of which would serve the stale read the header exists
// to prevent.
func minWALSeq(w http.ResponseWriter, req *http.Request) (uint64, bool) {
	h := req.Header.Get("X-Min-WAL-Seq")
	if h == "" {
		return 0, true
	}
	v, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		badRequest(w, fmt.Sprintf("X-Min-WAL-Seq %q is not an unsigned 64-bit WAL sequence", h))
	}
	return v, err == nil
}

// jsonPost builds the upstream POST of a JSON body to path.
func jsonPost(path string, body []byte) func(base string) (*http.Request, error) {
	return func(base string) (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}
}

// proxyQuery forwards a GET query (pair/topk/explain/why) to the replica
// owning its path key, retried and hedged.
func (r *Router) proxyQuery(w http.ResponseWriter, req *http.Request) {
	r.proxyGet(w, req, r.canonicalKey(req.URL.Query().Get("path")))
}

// proxyAny forwards a GET to any available replica (schema, stats — every
// replica serves the same graph).
func (r *Router) proxyAny(w http.ResponseWriter, req *http.Request) {
	r.proxyGet(w, req, req.URL.Path)
}

func (r *Router) proxyGet(w http.ResponseWriter, req *http.Request, key string) {
	target := req.URL.Path
	if req.URL.RawQuery != "" {
		target += "?" + req.URL.RawQuery
	}
	r.relay(w, req, key, func(base string) (*http.Request, error) {
		return http.NewRequest(http.MethodGet, base+target, nil)
	})
}

func (r *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady: the router is ready when at least one replica is.
func (r *Router) handleReady(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, rep := range r.replicas {
		if rep.healthy.Load() {
			healthy++
		}
	}
	body := map[string]any{
		"status":   "ready",
		"replicas": len(r.replicas),
		"healthy":  healthy,
	}
	if healthy == 0 {
		body["status"] = "no_replicas"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (r *Router) handleReplicas(w http.ResponseWriter, _ *http.Request) {
	primary := r.primary.Load()
	out := make([]api.Replica, len(r.replicas))
	secs := func(ms int64) float64 { // the probes' millisecond gauges; -1 = unknown
		if ms < 0 {
			return -1
		}
		return float64(ms) / 1000
	}
	for i, rep := range r.replicas {
		out[i] = api.Replica{
			URL:         rep.base,
			Healthy:     rep.healthy.Load(),
			Primary:     rep == primary,
			Diverged:    rep.isDiverged(),
			Breaker:     breakerStateName(rep.state.Load()),
			WALSeq:      rep.walSeq.Load(),
			Lag:         secs(rep.lagMS.Load()),
			Follows:     rep.follows.Load().(string),
			Fingerprint: rep.fingerprint.Load().(string),
			P50MS:       float64(rep.lat.quantile(0.50)) / float64(time.Millisecond),
			P99MS:       float64(rep.lat.quantile(0.99)) / float64(time.Millisecond),
		}
	}
	body := map[string]any{"replicas": out, "max_acked_wal_seq": r.maxAckedSeq.Load()}
	if primary != nil {
		body["primary"] = primary.base
	}
	writeJSON(w, http.StatusOK, body)
}
