package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetesim/internal/hin"
	"hetesim/internal/router"
)

// lifecycleGraph is the small Fig. 4 graph used across lifecycle tests.
func lifecycleGraph(t *testing.T) *hin.Graph {
	t.Helper()
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	b := hin.NewBuilder(s)
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("writes", "Tom", "p2")
	b.AddEdge("writes", "Mary", "p2")
	b.AddEdge("writes", "Mary", "p3")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddEdge("published_in", "p2", "KDD")
	b.AddEdge("published_in", "p3", "SIGMOD")
	return b.MustBuild()
}

func lifecycleServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(lifecycleGraph(t), opts...)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func decodeError(t *testing.T, r io.Reader) errorBody {
	t.Helper()
	var e errorBody
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	return e
}

// TestQueryTimeout504 exercises the per-request deadline: a 1ns budget is
// spent before the engine's first context poll, so every exact query must
// come back 504 with the stable deadline_exceeded code.
func TestQueryTimeout504(t *testing.T) {
	_, ts := lifecycleServer(t, WithQueryTimeout(time.Nanosecond))
	resp, err := http.Get(ts.URL + "/v1/topk?path=APC&source=Tom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusGatewayTimeout)
	}
	if e := decodeError(t, resp.Body); e.Code != "deadline_exceeded" {
		t.Errorf("code = %q, want deadline_exceeded", e.Code)
	}
	// Health endpoints are exempt from the query deadline.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d under query timeout", resp2.StatusCode)
	}
}

// TestSpentDeadlineNoFallback: a query whose deadline is spent has no
// approximate answer to fall back to. Pair and top-k, under hetesim and pcrw
// alike, all come back 504 deadline_exceeded.
func TestSpentDeadlineNoFallback(t *testing.T) {
	_, ts := lifecycleServer(t, WithQueryTimeout(time.Nanosecond))
	for _, q := range []string{
		"/v1/topk?path=APC&source=Tom",
		"/v1/pair?path=APC&source=Tom&target=KDD",
		"/v1/topk?path=APC&source=Tom&measure=pcrw",
		"/v1/pair?path=APC&source=Tom&target=KDD&measure=pcrw",
	} {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s: status = %d, want 504", q, resp.StatusCode)
		} else if e := decodeError(t, resp.Body); e.Code != "deadline_exceeded" {
			t.Errorf("%s: code = %q, want deadline_exceeded", q, e.Code)
		}
		resp.Body.Close()
	}
}

// TestClientCancel499 serves a request whose context is already canceled —
// the handler's engine call fails with context.Canceled, which must map to
// the 499 client-closed-request status.
func TestClientCancel499(t *testing.T) {
	srv := New(lifecycleGraph(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v1/pair?path=APC&source=Tom&target=KDD", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	if e := decodeError(t, rec.Body); e.Code != "canceled" {
		t.Errorf("code = %q, want canceled", e.Code)
	}
}

// TestPanicRecovery registers a panicking route and checks the middleware
// converts the panic into a 500 JSON response while the server keeps
// serving subsequent requests.
func TestPanicRecovery(t *testing.T) {
	srv, ts := lifecycleServer(t)
	srv.mux.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	resp, err := http.Get(ts.URL + "/v1/boom")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if e := decodeError(t, resp.Body); e.Code != "internal_panic" {
		t.Errorf("code = %q, want internal_panic", e.Code)
	}
	resp.Body.Close()
	// The daemon survived: a normal query still works.
	var pair pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &pair)
	if pair.Score <= 0 {
		t.Errorf("post-panic pair score = %v", pair.Score)
	}
}

// TestLoadShedding429 fills the single in-flight slot with a blocked
// query and checks the next query is shed with 429 + Retry-After, while
// liveness probes bypass the limiter.
func TestLoadShedding429(t *testing.T) {
	srv, ts := lifecycleServer(t, WithMaxInflight(1))
	started := make(chan struct{})
	release := make(chan struct{})
	srv.mux.HandleFunc("GET /v1/block", func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		writeJSON(w, http.StatusOK, map[string]string{"status": "unblocked"})
	})

	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/block")
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-started

	resp, err := http.Get(ts.URL + "/v1/pair?path=APC&source=Tom&target=KDD")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	if e := decodeError(t, resp.Body); e.Code != "overloaded" {
		t.Errorf("code = %q, want overloaded", e.Code)
	}
	resp.Body.Close()

	// Probes are never shed.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("healthz shed with %d while saturated", resp2.StatusCode)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("blocked request finished with %d", code)
	}
	// The slot is free again.
	var pair pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &pair)
}

// TestGracefulShutdownDrain starts a real http.Server on the robustness
// handler, blocks a request in-flight, calls Shutdown, and checks the
// in-flight request completes 200 while the drain finishes cleanly.
func TestGracefulShutdownDrain(t *testing.T) {
	srv := New(lifecycleGraph(t))
	started := make(chan struct{})
	release := make(chan struct{})
	srv.mux.HandleFunc("GET /v1/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		writeJSON(w, http.StatusOK, map[string]string{"status": "drained"})
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)

	url := "http://" + ln.Addr().String() + "/v1/slow"
	reqDone := make(chan string, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			reqDone <- err.Error()
			return
		}
		defer resp.Body.Close()
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		reqDone <- body["status"]
	}()
	<-started

	shutdownDone := make(chan error, 1)
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { shutdownDone <- httpSrv.Shutdown(drainCtx) }()

	// Shutdown must wait for the in-flight request, not kill it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if got := <-reqDone; got != "drained" {
		t.Fatalf("in-flight request got %q, want drained response", got)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestReadiness checks the liveness/readiness lifecycle: a fresh server
// reports cold (503), a warmup with no work flips straight to ready, and
// background materialization passes through warming before landing on
// ready — while /healthz stays 200 throughout.
func TestReadiness(t *testing.T) {
	srv, ts := lifecycleServer(t)
	if srv.Ready() {
		t.Fatal("fresh server already ready; want cold until warmup runs")
	}
	var body map[string]any
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable, &body)
	if body["status"] != "cold" {
		t.Errorf("readyz on fresh server = %v, want cold", body)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &body)

	// A malformed spec fails synchronously and does not mark the server
	// ready by accident.
	if err := srv.PrecomputeBackground([]string{"not a path"}); err == nil {
		t.Fatal("PrecomputeBackground accepted a malformed path")
	}
	if srv.Ready() {
		t.Fatal("failed parse marked server ready")
	}

	// Nothing to materialize: ready immediately.
	if err := srv.PrecomputeBackground(nil); err != nil {
		t.Fatal(err)
	}
	if !srv.Ready() {
		t.Fatal("empty warmup left server not ready")
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &body)
	if body["status"] != "ready" {
		t.Errorf("readyz = %v", body)
	}

	if err := srv.PrecomputeBackground([]string{"APC", "APCPA"}); err != nil {
		t.Fatal(err)
	}
	// Materialization runs in the background; readiness must flip to true
	// reasonably quickly on this tiny graph.
	deadline := time.Now().Add(10 * time.Second)
	for !srv.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz status = %d mid-materialization", resp.StatusCode)
		}
		resp.Body.Close()
		time.Sleep(time.Millisecond)
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &body)
	if body["status"] != "ready" {
		t.Errorf("readyz after materialization = %v", body)
	}
}

// TestPathLengthCap rejects absurdly long relevance paths up front.
func TestPathLengthCap(t *testing.T) {
	_, ts := lifecycleServer(t)
	spec := strings.Repeat("AP", 200) + "A"
	// Every endpoint that takes a path goes through the one decode, so the
	// cap holds on all of them — /v1/explain (which once parsed its path in
	// a private copy without it) and batch slots included.
	for _, target := range []string{
		"/v1/topk?path=" + spec + "&source=Tom",
		"/v1/pair?path=" + spec + "&source=Tom&target=Tom",
		"/v1/why?path=" + spec + "&source=Tom&target=Tom",
		"/v1/explain?path=" + spec,
	} {
		resp, err := http.Get(ts.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", target[:12], resp.StatusCode)
		}
		if e := decodeError(t, resp.Body); e.Code != "bad_request" || !strings.Contains(e.Error, "limit is 128") {
			t.Errorf("%s: %+v, want bad_request naming the limit", target[:12], e)
		}
		resp.Body.Close()
	}
	var batch batchResponse
	postJSON(t, ts.URL+"/v1/batch", batchRequest{Queries: []batchQueryBody{
		{Kind: "topk", Path: spec, Source: "Tom"},
	}}, http.StatusOK, &batch)
	if got := batch.Results[0]; got.Code != "bad_request" || !strings.Contains(got.Error, "limit is 128") {
		t.Errorf("batch slot: %+v, want bad_request naming the limit", got)
	}
}

// TestStatsCachedMatrices checks /v1/stats exposes the engine cache gauge.
func TestStatsCachedMatrices(t *testing.T) {
	srv, ts := lifecycleServer(t)
	var stats map[string]any
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	before, ok := stats["cached_matrices"].(float64)
	if !ok {
		t.Fatalf("stats = %v, want cached_matrices", stats)
	}
	if err := srv.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	var after map[string]any
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &after)
	if after["cached_matrices"].(float64) <= before {
		t.Errorf("cached_matrices did not grow after precompute: %v -> %v",
			before, after["cached_matrices"])
	}
	// The extended stats carry the engine's cache snapshot and the option
	// settings that produced it.
	cache, ok := after["cache"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing cache object: %v", after)
	}
	if cache["chain"].(float64) < 1 {
		t.Errorf("cache.chain = %v after precompute, want >= 1", cache["chain"])
	}
	if _, ok := cache["evictions"]; !ok {
		t.Errorf("cache object missing evictions: %v", cache)
	}
	options, ok := after["options"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing options object: %v", after)
	}
	for _, key := range []string{"cache_limit", "query_timeout_ms",
		"max_inflight", "max_path_steps", "slowlog_threshold_ms"} {
		if _, ok := options[key]; !ok {
			t.Errorf("options missing %q: %v", key, options)
		}
	}
}

// TestRawQueryReusesWarmChains: raw (Definition 3) and normalized
// (Definition 10) scores are read off the same chains of one engine, so a
// ?raw=1 top-k after a normalized warm-up of its path builds no chain and
// misses no cache, and the mixed probe holds no more matrices than its
// normalized half did alone.
func TestRawQueryReusesWarmChains(t *testing.T) {
	srv, ts := testServer(t)
	const topk = "/v1/topk?path=APCPA&source=Tom&k=3"
	cachedMatrices := func() float64 {
		var stats map[string]any
		getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
		return stats["cached_matrices"].(float64)
	}
	transposed := func() bool {
		for key := range srv.current().engine.ExportChains() {
			if strings.HasPrefix(key, "T:") {
				return true
			}
		}
		return false
	}
	var norm topKBody
	for i := 0; !transposed(); i++ { // rent or buy, then transpose once
		if i == 20 {
			t.Fatal("20 normalized top-ks and the right half-chain was never transposed")
		}
		getJSON(t, ts.URL+topk, http.StatusOK, &norm)
	}
	getJSON(t, ts.URL+topk, http.StatusOK, &norm) // the steady state: the cached transpose
	normalized := cachedMatrices()
	chains := srv.current().engine.CacheStats().Chain
	misses := scrapeMetrics(t, ts.URL)["hetesim_engine_cache_misses_total"]

	var raw topKBody
	getJSON(t, ts.URL+topk+"&raw=1", http.StatusOK, &raw)
	if got := srv.current().engine.CacheStats().Chain; got != chains {
		t.Errorf("raw top-k on a warm path: %d chains cached, %d before", got, chains)
	}
	if got := scrapeMetrics(t, ts.URL)["hetesim_engine_cache_misses_total"]; got != misses {
		t.Errorf("raw top-k on a warm path: %v cache misses, %v before", got, misses)
	}
	if got := cachedMatrices(); got > normalized {
		t.Errorf("cached_matrices after the mixed probe = %v, after its normalized half %v", got, normalized)
	}
	if len(raw.Results) == 0 || slices.Equal(raw.Results, norm.Results) {
		t.Errorf("raw hits %v, normalized %v: want the raw meeting probabilities", raw.Results, norm.Results)
	}
}

// TestCloseStopsWarmUp: the background rebuild a reload or a resync starts
// belongs to the server. Close, called while such a rebuild is in flight —
// its first path built and being logged, three more to go — cancels it and
// returns only once it stopped: the other paths are never built, the step
// in flight has finished, and no line arrives after Close returns. A
// rebuild that outlived its server would log into a finished test, which
// panics the whole test binary.
func TestCloseStopsWarmUp(t *testing.T) {
	specs := []string{"APA", "APCPA", "CPC", "APCPAPA"}
	for _, trigger := range []string{"reload", "resync"} {
		t.Run(trigger, func(t *testing.T) {
			var (
				srv                  *Server
				built, late          atomic.Int64
				closed, stepFinished atomic.Bool
				once                 sync.Once
				inFlight             = make(chan struct{})
			)
			logf := func(format string, args ...any) {
				if closed.Load() {
					late.Add(1)
					return
				}
				if strings.HasPrefix(format, "server: materialized") {
					built.Add(1)
					once.Do(func() {
						close(inFlight)
						<-srv.st.ctx.Done()               // hold the rebuild until Close cancels it
						time.Sleep(20 * time.Millisecond) // a step slow to notice
						stepFinished.Store(true)
					})
				}
			}
			srv = newWALReplica(t, WithLogf(logf))
			switch trigger {
			case "reload":
				for _, spec := range specs {
					if err := srv.Precompute(spec); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := srv.Reload(context.Background()); err != nil {
					t.Fatal(err)
				}
			case "resync":
				primary := newWALReplica(t)
				for _, spec := range specs {
					if err := primary.Precompute(spec); err != nil {
						t.Fatal(err)
					}
				}
				o := FollowerOptions{Client: &http.Client{Transport: router.Inproc{"primary": primary.Handler()}}, Logf: logf}
				if err := srv.resyncFromPrimary(context.Background(), o, schedulePrimary); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-inFlight:
			case <-time.After(10 * time.Second):
				t.Fatal("the rebuild never built its first path")
			}
			srv.Close()
			closed.Store(true)
			if !stepFinished.Load() {
				t.Fatal("Close returned while the rebuild's step was still running")
			}
			if n := built.Load(); n != 1 {
				t.Fatalf("%d of %d paths built: Close must stop the rebuild after the one in flight", n, len(specs))
			}
			time.Sleep(20 * time.Millisecond)
			if n := late.Load(); n != 0 {
				t.Fatalf("%d lines logged after Close returned", n)
			}
		})
	}
}
