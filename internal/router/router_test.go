package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetesim/internal/api"
	"hetesim/internal/server"
)

// TestCloseStopsBackgroundLogging: the only replica flips between ready
// and not ready on every probe, so the health checker logs an election
// every round. Once Close returns no further line may arrive: a checker
// that outlives its router logs into a finished test, which panics the
// whole test binary.
func TestCloseStopsBackgroundLogging(t *testing.T) {
	var probes atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if probes.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write([]byte("{}"))
	})
	var lines, late atomic.Int64
	var closed atomic.Bool
	logf := func(string, ...any) {
		lines.Add(1)
		if closed.Load() {
			late.Add(1)
		}
	}
	rt, err := New([]string{"http://replica0"},
		WithClient(&http.Client{Transport: Inproc{"replica0": flaky}}),
		WithSchema(testGraph().Schema()), WithHealthInterval(time.Millisecond), WithLogf(logf))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background()) // only Close can stop it
	for deadline := time.Now().Add(10 * time.Second); lines.Load() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the health checker logged %d elections in 10s, want 4", lines.Load())
		}
	}
	rt.Close()
	closed.Store(true)
	time.Sleep(50 * time.Millisecond) // fifty health intervals
	if n := late.Load(); n != 0 {
		t.Fatalf("%d lines logged after Close returned", n)
	}
	rt.Close() // a second Close does nothing
	(&Router{}).Close()
}

// connLog records every connection a test replica accepted and the last
// state each reached.
type connLog struct {
	mu    sync.Mutex
	state map[net.Conn]http.ConnState
}

func (l *connLog) hook(c net.Conn, s http.ConnState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.state[c] = s
}

// counts reports how many connections were accepted and how many of them
// have not reached StateClosed.
func (l *connLog) counts() (accepted, open int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.state {
		if s != http.StateClosed {
			open++
		}
	}
	return len(l.state), open
}

// loggedReplicas starts n replicas of testGraph over loopback TCP, each
// logging the connections it accepts.
func loggedReplicas(t *testing.T, n int) ([]string, []*connLog) {
	t.Helper()
	urls := make([]string, n)
	logs := make([]*connLog, n)
	for i := range urls {
		srv := server.New(testGraph(), server.WithLogf(t.Logf))
		t.Cleanup(srv.Close)
		srv.MarkReady()
		logs[i] = &connLog{state: make(map[net.Conn]http.ConnState)}
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Config.ConnState = logs[i].hook
		ts.Start()
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls, logs
}

// inprocReplicas serves n replicas of testGraph in process under the fixed
// hosts replica0, replica1, …, so rendezvous placement is the same on every
// run.
func inprocReplicas(t *testing.T, n int) (Inproc, []string) {
	t.Helper()
	fleet := Inproc{}
	urls := make([]string, n)
	for i := range urls {
		srv := server.New(testGraph(), server.WithLogf(t.Logf))
		t.Cleanup(srv.Close)
		srv.MarkReady()
		host := fmt.Sprintf("replica%d", i)
		fleet[host] = srv.Handler()
		urls[i] = "http://" + host
	}
	return fleet, urls
}

// startRouter builds and starts a router over urls that Cleanup closes.
func startRouter(t *testing.T, urls []string, opts ...Option) *Router {
	t.Helper()
	base := []Option{WithSchema(testGraph().Schema()), WithHealthInterval(time.Hour), WithLogf(t.Logf)}
	rt, err := New(urls, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	t.Cleanup(rt.Close)
	return rt
}

// fanoutBatch is a 64-slot batch over the 4 path keys APA, APC, PAP and
// APCPA, pair and top-k slots alternating, as a bench batch is laid out.
var fanoutBatch = func() string {
	type slot struct{ path, source, target string }
	keys := []slot{{"APA", "Tom", "Mary"}, {"APC", "Tom", "KDD"}, {"PAP", "p1", "p2"}, {"APCPA", "Tom", "Bob"}}
	queries := make([]map[string]any, 64)
	for i := range queries {
		s := keys[i%len(keys)]
		queries[i] = map[string]any{"kind": "pair", "path": s.path, "source": s.source, "target": s.target}
		if i/len(keys)%2 == 1 {
			queries[i] = map[string]any{"kind": "topk", "path": s.path, "source": s.source, "k": 3}
		}
	}
	b, _ := json.Marshal(map[string]any{"queries": queries})
	return string(b)
}()

// fanoutEnsemble is a pair-mode relevance ensemble over 8 explicit paths,
// each its own path key (no two are each other's reverse).
const fanoutEnsemble = `{"source":"Tom","source_type":"author","target":"Mary","target_type":"author",` +
	`"paths":["APA","APAPA","APCPA","APAPAPA","APAPCPA","APCPCPA","APAPAPAPA","APCPAPCPA"]}`

// postTo sends a JSON body to h and returns the 200 body; it reports through
// t.Error, so it may run on any goroutine.
func postTo(t *testing.T, h http.Handler, path, body string) ([]byte, bool) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Errorf("POST %s: %d %s", path, rec.Code, rec.Body)
		return nil, false
	}
	return rec.Body.Bytes(), true
}

// TestCloseClosesUpstreamConnections: Close leaves no connection of the
// router's own transport open, so a closed router holds no socket to its
// replicas. A client the caller supplied is the caller's: its connections
// stay open.
func TestCloseClosesUpstreamConnections(t *testing.T) {
	urls, logs := loggedReplicas(t, 2)
	rt := startRouter(t, urls)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ { // concurrent ensembles: several connections per replica
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				postTo(t, rt.Handler(), "/v1/relevance", fanoutEnsemble)
			}
		}()
	}
	wg.Wait()
	rt.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		open := 0
		for _, l := range logs {
			accepted, o := l.counts()
			if accepted == 0 {
				t.Fatal("a replica accepted no connection")
			}
			open += o
		}
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d upstream connections still open 5s after Close", open)
		}
	}

	own := &http.Transport{}
	t.Cleanup(own.CloseIdleConnections)
	mine := startRouter(t, urls, WithClient(&http.Client{Transport: own}))
	postTo(t, mine.Handler(), "/v1/relevance", fanoutEnsemble)
	before := 0
	for _, l := range logs {
		_, o := l.counts()
		before += o
	}
	mine.Close()
	time.Sleep(20 * time.Millisecond)
	after := 0
	for _, l := range logs {
		_, o := l.counts()
		after += o
	}
	if before == 0 || after != before {
		t.Errorf("a caller's transport: %d connections open before Close, %d after; want the same, not 0", before, after)
	}
}

// TestUpstreamConnectionsPooled: routed batches and scattered ensembles
// from concurrent clients reuse the router's upstream connections, so a
// replica accepts about one connection per concurrent client, not one or
// more per request. Four clients keep more requests in flight per replica
// than http.DefaultTransport keeps idle (2 a host). Every accepted
// connection is one dial in hetesim_router_upstream_dials_total.
func TestUpstreamConnectionsPooled(t *testing.T) {
	urls, logs := loggedReplicas(t, 2)
	dials := metDials.Value()
	rt := startRouter(t, urls)
	const clients, rounds = 4, 13 // 52 ensembles and 52 batches
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				postTo(t, rt.Handler(), "/v1/relevance", fanoutEnsemble)
				postTo(t, rt.Handler(), "/v1/batch", fanoutBatch)
			}
		}()
	}
	wg.Wait()
	total := 0
	for i, l := range logs {
		accepted, _ := l.counts()
		total += accepted
		t.Logf("replica %d accepted %d connections", i, accepted)
		if accepted > 16 {
			t.Errorf("replica %d accepted %d connections for %d requests, want at most 16", i, accepted, 2*clients*rounds)
		}
	}
	if d := metDials.Value() - dials; d != uint64(total) {
		t.Errorf("hetesim_router_upstream_dials_total moved by %d, the replicas accepted %d connections", d, total)
	}
}

// TestFanoutOneSubBatchPerReplica: a 64-slot batch over 4 path keys and an
// 8-path ensemble each reach every replica exactly once — one sub-batch per
// rendezvous order, not one per key — and answer bit for bit as a replica
// answers them directly. The fixed member names pin which keys each replica
// owns: both own some of each request's keys.
func TestFanoutOneSubBatchPerReplica(t *testing.T) {
	fleet, urls := inprocReplicas(t, 2)
	batches := map[string]*atomic.Int64{}
	for host, h := range fleet {
		n := &atomic.Int64{}
		batches[host] = n
		fleet[host] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/batch" {
				n.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
	rt := startRouter(t, urls, WithClient(&http.Client{Transport: fleet}))
	solo, _ := inprocReplicas(t, 1)
	direct := solo["replica0"]

	for _, c := range []struct{ name, path, body string }{
		{"64-slot batch", "/v1/batch", fanoutBatch},
		{"8-path ensemble", "/v1/relevance", fanoutEnsemble},
	} {
		for _, n := range batches {
			n.Store(0)
		}
		fanned := metFanout.Value()
		got, ok := postTo(t, rt.Handler(), c.path, c.body)
		want, ok2 := postTo(t, direct, c.path, c.body)
		if !ok || !ok2 {
			continue
		}
		for host, n := range batches {
			if n.Load() != 1 {
				t.Errorf("%s: %s got %d sub-batches, want 1", c.name, host, n.Load())
			}
		}
		if d := metFanout.Value() - fanned; d != 2 {
			t.Errorf("%s: hetesim_router_batch_fanout_total moved by %d, want 2 (one per replica)", c.name, d)
		}
		// The answers without the stats block, which times the request, and
		// without a member path's plan, which a scattered ensemble does not
		// relay.
		var g, w struct {
			Results json.RawMessage     `json:"results"`
			Score   json.RawMessage     `json:"score"`
			Paths   []api.RelevancePath `json:"paths"`
		}
		if err := json.Unmarshal(got, &g); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatal(err)
		}
		for i := range w.Paths {
			w.Paths[i].Plan = ""
		}
		gp, _ := json.Marshal(g.Paths)
		wp, _ := json.Marshal(w.Paths)
		if !bytes.Equal(g.Results, w.Results) || !bytes.Equal(g.Score, w.Score) || !bytes.Equal(gp, wp) {
			t.Errorf("%s: routed answer differs from direct\nrouted %s\ndirect %s", c.name, got, want)
		}
	}
}
