package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/chaos"
	"hetesim/internal/hin"
	"hetesim/internal/server"
)

// testGraph is the paper's running example: authors writing papers
// published in conferences. Every replica serves an identical copy.
func testGraph() *hin.Graph {
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
	b.AddEdge("writes", "Bob", "p3")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddEdge("published_in", "p2", "KDD")
	b.AddEdge("published_in", "p3", "SIGMOD")
	return b.MustBuild()
}

// testReplica is one in-process hetesimd: a real server.Server behind a
// fault-injecting listener, so tests can kill and revive it without
// rebinding its address.
type testReplica struct {
	srv   *server.Server
	ts    *httptest.Server
	fl    *chaos.Listener
	slowy atomic.Int64 // per-request handler delay, nanoseconds
}

func (tr *testReplica) kill() {
	tr.fl.Refuse(true)
	tr.fl.CloseActive()
}

func (tr *testReplica) revive() { tr.fl.Refuse(false) }

func newTestReplica(t *testing.T) *testReplica {
	t.Helper()
	tr := &testReplica{srv: server.New(testGraph())}
	t.Cleanup(tr.srv.Close)
	tr.srv.MarkReady()
	h := tr.srv.Handler()
	tr.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := tr.slowy.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		h.ServeHTTP(w, r)
	}))
	tr.fl = chaos.WrapListener(tr.ts.Listener)
	tr.ts.Listener = tr.fl
	tr.ts.Start()
	t.Cleanup(tr.ts.Close)
	return tr
}

// newCluster spins up n replicas and a router fronting them. The returned
// router has been Started (initial probes done, schema fetched from the
// fleet over HTTP).
func newCluster(t *testing.T, n int, opts ...Option) (*Router, []*testReplica) {
	t.Helper()
	reps := make([]*testReplica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = newTestReplica(t)
		urls[i] = reps[i].ts.URL
	}
	base := []Option{
		WithRetryPolicy(RetryPolicy{Retries: 3, Base: 2 * time.Millisecond, MaxWait: 20 * time.Millisecond}),
		WithBreaker(3, 150*time.Millisecond),
		WithHealthInterval(50 * time.Millisecond),
		WithLogf(t.Logf),
	}
	rt, err := New(urls, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)
	t.Cleanup(rt.Close)
	if rt.schema.Load() == nil {
		t.Fatal("router did not fetch a schema from the fleet")
	}
	return rt, reps
}

// replicaFor returns the test replica owning key (rendezvous rank 0).
func replicaFor(rt *Router, reps []*testReplica, key string) *testReplica {
	owner := rt.rank(key)[0]
	for _, tr := range reps {
		if strings.TrimRight(tr.ts.URL, "/") == owner.base {
			return tr
		}
	}
	return nil
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", url, err)
	}
	return resp, out
}

var batchPaths = []string{"APA", "APC", "CPA", "PCP", "PAP", "APCPA"}

func testBatchBody(k int) map[string]any {
	queries := make([]map[string]any, 0, len(batchPaths))
	for _, p := range batchPaths {
		q := map[string]any{"kind": "topk", "path": p, "k": k}
		switch p[0] {
		case 'A':
			q["source"] = "Tom"
		case 'C':
			q["source"] = "KDD"
		case 'P':
			q["source"] = "p1"
		}
		queries = append(queries, q)
	}
	return map[string]any{"queries": queries}
}

// TestClusterKillMidBatch is the acceptance scenario: a 3-replica cluster
// takes continuous batch traffic while one replica is killed mid-stream
// and later revived. Every single batch request must answer 200 with a
// full result set — failure is per-slot at worst, never whole-request —
// the dead replica's breaker must open and close again after the revival,
// and the retry/breaker counters must show up in /metrics.
func TestClusterKillMidBatch(t *testing.T) {
	// Probes run once at Start (marking everyone healthy) and then never
	// again, so the breaker — not the health prober — is what sheds the
	// dead replica. Without this the breaker-open assertion races the
	// prober: under load the workers may not land three failures on the
	// victim before a probe tick marks it unhealthy and takes it out of
	// rotation.
	rt, reps := newCluster(t, 3, WithHealthInterval(time.Hour))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	victim := replicaFor(rt, reps, rt.canonicalKey("APA"))
	if victim == nil {
		t.Fatal("no owner for APA")
	}

	var (
		wg            sync.WaitGroup
		wholeFailures atomic.Int64
		requests      atomic.Int64
		slotErrors    atomic.Int64
		stop          atomic.Bool
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				raw, _ := json.Marshal(testBatchBody(3))
				resp, err := client.Post(front.URL+"/v1/batch", "application/json", bytes.NewReader(raw))
				if err != nil {
					wholeFailures.Add(1)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				requests.Add(1)
				if rerr != nil || resp.StatusCode != http.StatusOK {
					wholeFailures.Add(1)
					continue
				}
				var br struct {
					Results []struct {
						Error string `json:"error"`
					} `json:"results"`
				}
				if json.Unmarshal(body, &br) != nil || len(br.Results) != len(batchPaths) {
					wholeFailures.Add(1)
					continue
				}
				for _, res := range br.Results {
					if res.Error != "" {
						slotErrors.Add(1)
					}
				}
			}
		}()
	}

	time.Sleep(150 * time.Millisecond) // healthy traffic
	victim.kill()
	time.Sleep(400 * time.Millisecond) // degraded traffic: retries + breaker
	victim.revive()
	time.Sleep(400 * time.Millisecond) // recovery traffic
	stop.Store(true)
	wg.Wait()

	if n := requests.Load(); n == 0 {
		t.Fatal("no batch requests completed")
	}
	if n := wholeFailures.Load(); n != 0 {
		t.Fatalf("%d whole-request failures; the batch surface must degrade per-slot only", n)
	}
	t.Logf("%d batches, %d transient slot errors", requests.Load(), slotErrors.Load())

	// The victim's breaker must have opened while it was dead...
	metrics := getText(t, client, front.URL+"/metrics")
	victimBase := strings.TrimRight(victim.ts.URL, "/")
	if !strings.Contains(metrics, `hetesim_router_breaker_transitions_total{replica="`+victimBase+`",to="open"}`) {
		t.Error("breaker never opened for the killed replica")
	}
	if !strings.Contains(metrics, "hetesim_router_retries_total") {
		t.Error("retry counter missing from /metrics")
	}
	if !strings.Contains(metrics, "hetesim_router_routing_total") {
		t.Error("routing decision counters missing from /metrics")
	}

	// ...and must close again now that it is back: drive traffic until the
	// half-open probe lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJSON(t, client, front.URL+"/v1/batch", testBatchBody(3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-revival batch answered %d", resp.StatusCode)
		}
		var rb struct {
			Replicas []replicaBody `json:"replicas"`
		}
		getJSON(t, client, front.URL+"/v1/admin/replicas", &rb)
		closed := false
		for _, rep := range rb.Replicas {
			if rep.URL == victimBase && rep.Breaker == "closed" && rep.Healthy {
				closed = true
			}
		}
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim breaker never closed after revival: %+v", rb.Replicas)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getText(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func getJSON(t *testing.T, client *http.Client, url string, into any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// TestRelevancePartialFailure (satellite): a scattered /v1/relevance whose
// scored path's replica is down answers partial=true with the surviving
// contributions unrenormalized — the failed path's weight is not
// redistributed, so the partial score is a lower bound on the full one.
// TestRelevanceUnknownEndpointIs404 holds a routed pair ensemble naming a
// node the graph lacks to the direct answer: a whole-request 404
// not_found with the replica's message, not a 200 whose every member
// failed.
func TestRelevanceUnknownEndpointIs404(t *testing.T) {
	rt, reps := newCluster(t, 2)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	for _, ends := range [][2]string{{"Nobody", "Mary"}, {"Tom", "Nobody"}} {
		req := map[string]any{
			"source": ends[0], "source_type": "author",
			"target": ends[1], "target_type": "author",
		}
		direct, dbody := postJSON(t, client, reps[0].ts.URL+"/v1/relevance", req)
		routed, rbody := postJSON(t, client, front.URL+"/v1/relevance", req)
		if direct.StatusCode != http.StatusNotFound {
			t.Fatalf("%v direct: %d %s, want 404", ends, direct.StatusCode, dbody)
		}
		if routed.StatusCode != direct.StatusCode || !bytes.Equal(rbody, dbody) {
			t.Errorf("%v routed: %d %s, direct: %d %s", ends, routed.StatusCode, rbody, direct.StatusCode, dbody)
		}
	}
}

func TestRelevancePartialFailure(t *testing.T) {
	// Fixed member names over an in-process fleet pin the rendezvous layout,
	// so the ensemble's paths split across replicas the same way on every
	// run; a host with no handler refuses, as a dead replica does.
	// retries=0: the dead path group must actually fail rather than fall
	// back, and a long health interval keeps the stale "healthy" view.
	fleet, urls := inprocReplicas(t, 3)
	rt := startRouter(t, urls, WithClient(&http.Client{Transport: fleet}),
		WithRetryPolicy(RetryPolicy{Retries: 0, Base: time.Millisecond, MaxWait: 5 * time.Millisecond}))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	relReq := map[string]any{
		"source": "Tom", "source_type": "author",
		"target": "Mary", "target_type": "author",
		"weighting": "uniform",
	}

	// Healthy baseline: full ensemble.
	var full relevanceResponse
	resp, body := postJSON(t, client, front.URL+"/v1/relevance", relReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy relevance: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.Score == nil || len(full.Paths) < 2 {
		t.Fatalf("healthy ensemble: partial=%v score=%v paths=%d", full.Partial, full.Score, len(full.Paths))
	}

	// Kill the replica owning the first path's group; with these member
	// names another replica owns a later path.
	victim := rt.rank(rt.canonicalKey(full.Paths[0].Path))[0]
	survivors := false
	for _, pb := range full.Paths[1:] {
		if rt.rank(rt.canonicalKey(pb.Path))[0] != victim {
			survivors = true
		}
	}
	if !survivors {
		t.Fatalf("%s owns every candidate path: the pinned layout no longer splits the ensemble", victim.base)
	}
	delete(fleet, strings.TrimPrefix(victim.base, "http://")) // no probe runs concurrently: the interval is an hour

	var part relevanceResponse
	resp, body = postJSON(t, client, front.URL+"/v1/relevance", relReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded relevance must still answer 200, got %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &part); err != nil {
		t.Fatal(err)
	}
	if !part.Partial {
		t.Fatalf("killed path owner but partial=false: %s", body)
	}
	if part.Score == nil {
		t.Fatal("partial answer lost its surviving score entirely")
	}

	var survived, failed int
	expect := 0.0
	for i, pb := range part.Paths {
		if wantW := full.Paths[i].Weight; pb.Weight != wantW {
			t.Errorf("path %s weight %v != healthy weight %v (weights must stay unrenormalized)",
				pb.Path, pb.Weight, wantW)
		}
		if pb.Error != "" {
			failed++
			continue
		}
		survived++
		expect += pb.Weight * *pb.Score
	}
	if failed == 0 || survived == 0 {
		t.Fatalf("want a mix of failed and surviving paths, got %d failed / %d survived", failed, survived)
	}
	if diff := *part.Score - expect; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("partial score %v != sum of surviving weighted contributions %v", *part.Score, expect)
	}
	if *part.Score >= *full.Score {
		t.Errorf("partial score %v not below full score %v; failed weight must not be redistributed",
			*part.Score, *full.Score)
	}
}

// TestRelevanceFailedMember: a member path that misses its deadline reads
// the same through the router's scatter as from the replica itself — code
// path_failed, no score and no plan — and the pair answer carries no score.
func TestRelevanceFailedMember(t *testing.T) {
	srv := server.New(testGraph(), server.WithQueryTimeout(time.Nanosecond), server.WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	srv.MarkReady()
	rt, err := New([]string{"http://replica0"},
		WithClient(&http.Client{Transport: Inproc{"replica0": srv.Handler()}}),
		WithSchema(testGraph().Schema()), WithHealthInterval(time.Hour), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)
	t.Cleanup(rt.Close)
	const body = `{"source": "Tom", "source_type": "author", "target": "Mary", "target_type": "author", "paths": ["APA"]}`
	want := api.RelevancePath{Path: "APA", Weight: 1, Error: "context deadline exceeded", Code: "path_failed"}
	for name, h := range map[string]http.Handler{"direct": srv.Handler(), "routed": rt.Handler()} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/relevance", strings.NewReader(body)))
		var resp api.RelevanceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s (%v)", name, rec.Code, rec.Body, err)
		}
		if !resp.Partial || resp.Score != nil || len(resp.Paths) != 1 || resp.Paths[0] != want {
			t.Errorf("%s: %s\nwant partial, no score, one path %+v", name, rec.Body, want)
		}
	}
}

// TestRelevanceRoutedMatchesDirect pins routed == direct for /v1/relevance:
// the router builds the ensemble with the replica's own candidate code, so
// a valid request scores bit-identically through either door and a request
// whose explicit path does not connect the asked endpoint types is the same
// 400 at both (the router used to score it).
func TestRelevanceRoutedMatchesDirect(t *testing.T) {
	rt, reps := newCluster(t, 2)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	for _, req := range []map[string]any{
		{"source": "Tom", "source_type": "author", "target": "Mary", "target_type": "author"},
		{"source": "Tom", "source_type": "author", "target": "Mary", "target_type": "author", "paths": []string{"APA", "APCPA"}},
	} {
		var routed, direct relevanceResponse
		for url, into := range map[string]*relevanceResponse{front.URL: &routed, reps[0].ts.URL: &direct} {
			resp, body := postJSON(t, client, url+"/v1/relevance", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s %v = %d %s", url, req, resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, into); err != nil {
				t.Fatal(err)
			}
		}
		if routed.Score == nil || direct.Score == nil || *routed.Score != *direct.Score || *routed.Score <= 0 {
			t.Fatalf("%v: routed score %v != direct score %v", req, routed.Score, direct.Score)
		}
		if len(routed.Paths) != len(direct.Paths) {
			t.Fatalf("%v: routed ensemble has %d paths, direct %d", req, len(routed.Paths), len(direct.Paths))
		}
		for i, pb := range routed.Paths {
			if d := direct.Paths[i]; pb.Path != d.Path || pb.Weight != d.Weight || pb.Score == nil || d.Score == nil || *pb.Score != *d.Score {
				t.Errorf("%v: path %d routed %+v != direct %+v", req, i, pb, d)
			}
		}
	}

	// APC ends at conference; the query asks author→author.
	bad := map[string]any{
		"source": "Tom", "source_type": "author", "target": "Mary", "target_type": "author",
		"paths": []string{"APC"},
	}
	for _, url := range []string{front.URL, reps[0].ts.URL} {
		resp, body := postJSON(t, client, url+"/v1/relevance", bad)
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
			t.Errorf("POST %s mismatched explicit path = %d %q, want 400 bad_request: %s", url, resp.StatusCode, e.Code, body)
		}
	}
}

// TestHedgedRead: with hedging on, a request whose primary replica turned
// slow is answered by the hedge within the clamp window instead of waiting
// out the primary.
func TestHedgedRead(t *testing.T) {
	rt, reps := newCluster(t, 2, WithHedging(5*time.Millisecond, 20*time.Millisecond))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	key := rt.canonicalKey("APC")
	owner := replicaFor(rt, reps, key)
	owner.slowy.Store(int64(500 * time.Millisecond))

	start := time.Now()
	resp, body := postJSON(t, client, front.URL+"/v1/batch", map[string]any{
		"queries": []map[string]any{{"kind": "pair", "path": "APC", "source": "Tom", "target": "KDD"}},
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged batch: %d %s", resp.StatusCode, body)
	}
	var br struct {
		Results []struct {
			Error string   `json:"error"`
			Score *float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Error != "" || br.Results[0].Score == nil {
		t.Fatalf("hedged result: %+v", br.Results[0])
	}
	if elapsed >= 450*time.Millisecond {
		t.Fatalf("hedged request took %v; the hedge should beat the %v primary", elapsed, 500*time.Millisecond)
	}
	metrics := getText(t, client, front.URL+"/metrics")
	if !strings.Contains(metrics, "hetesim_router_hedges_total") {
		t.Error("hedge counter missing from /metrics")
	}
}

// TestRendezvousPlacement: the canonical key collapses a path with its
// reverse onto one replica, and placement is deterministic.
func TestRendezvousPlacement(t *testing.T) {
	rt, _ := newCluster(t, 3)
	for _, spec := range []string{"APC", "APA", "APCPA"} {
		k := rt.canonicalKey(spec)
		if got := rt.rank(k)[0]; got != rt.rank(k)[0] {
			t.Fatalf("placement for %s not deterministic", spec)
		}
	}
	// APC reversed is CPA: same canonical key, same owner.
	if rt.canonicalKey("APC") != rt.canonicalKey("CPA") {
		t.Errorf("canonicalKey(APC)=%q != canonicalKey(CPA)=%q — Property 1 placement broken",
			rt.canonicalKey("APC"), rt.canonicalKey("CPA"))
	}
}

// TestProxyPairAndTopK: the plain GET query surface round-trips through
// the router unchanged.
func TestProxyPairAndTopK(t *testing.T) {
	rt, _ := newCluster(t, 3)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	var pair struct {
		Score   float64 `json:"score"`
		Measure string  `json:"measure"`
	}
	getJSON(t, client, front.URL+"/v1/pair?path=APCPA&source=Tom&target=Mary", &pair)
	if pair.Score <= 0 || pair.Score > 1 {
		t.Fatalf("proxied pair score = %v", pair.Score)
	}
	var topk struct {
		Results []struct {
			ID string `json:"id"`
		} `json:"results"`
	}
	getJSON(t, client, front.URL+"/v1/topk?path=APC&source=Tom&k=2", &topk)
	if len(topk.Results) == 0 {
		t.Fatalf("proxied topk returned nothing: %+v", topk)
	}
	var ready struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy"`
	}
	getJSON(t, client, front.URL+"/readyz", &ready)
	if ready.Status != "ready" || ready.Healthy != 3 {
		t.Fatalf("router readyz = %+v", ready)
	}
}

// TestReadyzFreshnessFields (satellite): the replica's /readyz carries
// wal_seq and the fingerprint so the router can rank freshness, and no
// snapshot age: chains are rebuilt, not stored, so there is none to rank.
func TestReadyzFreshnessFields(t *testing.T) {
	rep := newTestReplica(t)
	client := &http.Client{Timeout: 5 * time.Second}
	var ready map[string]any
	getJSON(t, client, rep.ts.URL+"/readyz", &ready)
	for _, key := range []string{"wal_seq", "fingerprint"} {
		if _, ok := ready[key]; !ok {
			t.Errorf("readyz missing %s", key)
		}
	}
	if age, ok := ready["snapshot_age_seconds"]; ok {
		t.Errorf("readyz still carries snapshot_age_seconds = %v", age)
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
