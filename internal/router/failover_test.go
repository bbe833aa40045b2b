package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetesim/internal/chaos"
	"hetesim/internal/hin"
	"hetesim/internal/server"
)

// newWALReplica is a testReplica with durability: its own WAL and base
// graph file, so it can accept mutations, replicate them, and compact.
func newWALReplica(t *testing.T) *testReplica {
	t.Helper()
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.json")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := hin.Write(f, testGraph()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tr := &testReplica{srv: server.New(testGraph(),
		server.WithWALPath(filepath.Join(dir, "edges.wal")),
		server.WithReloadFrom(graphPath),
		server.WithLogf(t.Logf))}
	t.Cleanup(tr.srv.Close)
	tr.srv.MarkReady()
	if _, err := tr.srv.OpenWAL(); err != nil {
		t.Fatal(err)
	}
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

// newReplicatedCluster wires the full fleet topology: n WAL replicas, a
// router electing a primary among them, and a follower loop on every
// replica pointed at the router (router-assigned mode: the elected
// replica stands down as follower and accepts writes, the rest replicate
// from it).
func newReplicatedCluster(t *testing.T, n int, opts ...Option) (*Router, *httptest.Server, []*testReplica) {
	t.Helper()
	reps := make([]*testReplica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = newWALReplica(t)
		urls[i] = reps[i].ts.URL
	}
	base := []Option{
		WithRetryPolicy(RetryPolicy{Retries: 3, Base: 2 * time.Millisecond, MaxWait: 20 * time.Millisecond}),
		WithBreaker(3, 100*time.Millisecond),
		WithHealthInterval(20 * time.Millisecond),
		WithLogf(t.Logf),
	}
	rt, err := New(urls, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.Start(ctx)
	front := httptest.NewServer(rt.Handler())
	done := make(chan struct{}, n)
	for _, tr := range reps {
		go func(tr *testReplica) {
			defer func() { done <- struct{}{} }()
			tr.srv.RunFollower(ctx, server.FollowerOptions{
				Target:   front.URL,
				Self:     tr.ts.URL,
				Interval: 5 * time.Millisecond,
				Logf:     t.Logf,
			})
		}(tr)
	}
	t.Cleanup(func() {
		cancel()
		for i := 0; i < n; i++ {
			<-done
		}
		front.Close()
	})
	return rt, front, reps
}

// waitPrimary polls until the router has elected a primary and the
// elected replica has noticed (accepts writes), returning its testReplica.
func waitPrimary(t *testing.T, rt *Router, reps []*testReplica) *testReplica {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if p := rt.primary.Load(); p != nil {
			for _, tr := range reps {
				if strings.TrimRight(tr.ts.URL, "/") == p.base && tr.srv.AcceptsWrites() {
					return tr
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("router never elected a primary the replica itself agrees with")
	return nil
}

// routedWrite posts one mutation batch through the router, retrying
// not-primary/failover 503s under the batch's idempotency key — the
// client-side protocol for writing through an electing fleet. Returns the
// acked WAL sequence.
func routedWrite(t *testing.T, client *http.Client, frontURL, key string, ops []hin.Op) (uint64, bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := postJSON(t, client, frontURL+"/v1/admin/edges", map[string]any{"key": key, "ops": ops})
		switch resp.StatusCode {
		case http.StatusOK:
			var mb struct {
				Seq uint64 `json:"seq"`
			}
			if err := json.Unmarshal(body, &mb); err != nil || mb.Seq == 0 {
				t.Fatalf("write ack unparsable: %v %s", err, body)
			}
			if h := resp.Header.Get("X-Hetesim-WAL-Seq"); h != fmt.Sprint(mb.Seq) {
				t.Fatalf("ack header X-Hetesim-WAL-Seq=%q, body seq %d", h, mb.Seq)
			}
			return mb.Seq, true
		case http.StatusServiceUnavailable:
			time.Sleep(10 * time.Millisecond) // failover window; same key, retry
		default:
			t.Fatalf("routed write %s: %d %s", key, resp.StatusCode, body)
		}
	}
	return 0, false
}

// waitReplicated polls until every live replica's reported wal_seq has
// reached seq — the point where a failover has an eligible candidate.
func waitReplicated(t *testing.T, client *http.Client, frontURL string, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var rb struct {
			Replicas []replicaBody `json:"replicas"`
		}
		getJSON(t, client, frontURL+"/v1/admin/replicas", &rb)
		ok := true
		for _, rep := range rb.Replicas {
			if rep.WALSeq < seq {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("followers never replicated to seq %d", seq)
}

// waitFleetConverged polls /v1/admin/replicas until every replica is
// healthy at the same wal_seq with the same fingerprint and none is
// flagged diverged.
func waitFleetConverged(t *testing.T, client *http.Client, frontURL string, n int) []replicaBody {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last []replicaBody
	for time.Now().Before(deadline) {
		var rb struct {
			Replicas []replicaBody `json:"replicas"`
		}
		getJSON(t, client, frontURL+"/v1/admin/replicas", &rb)
		last = rb.Replicas
		ok := len(last) == n
		for _, rep := range last {
			if !rep.Healthy || rep.Diverged ||
				rep.WALSeq != last[0].WALSeq || rep.Fingerprint != last[0].Fingerprint {
				ok = false
			}
		}
		if ok {
			return last
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("fleet never converged: %+v", last)
	return nil
}

// TestFailoverWriteStream is the acceptance scenario: a 3-replica fleet
// takes a continuous stream of routed writes while the elected primary is
// killed mid-stream. The router fails over (write availability returns),
// the revived old primary rejoins as a follower, and after convergence
// every acked delta is readable — bit-identically — from every replica.
// Zero acked deltas may be lost: the election gate (candidates must have
// replicated every router-acked sequence) enforces it by construction.
func TestFailoverWriteStream(t *testing.T) {
	rt, front, reps := newReplicatedCluster(t, 3)
	client := &http.Client{Timeout: 10 * time.Second}
	first := waitPrimary(t, rt, reps)

	// Acked writes: each batch adds one author co-writing p1 with Tom, so
	// each surviving delta is independently observable via an APA query.
	type acked struct {
		author string
		seq    uint64
	}
	var acks []acked
	write := func(i int) {
		author := fmt.Sprintf("Fov%02d", i)
		ops := []hin.Op{{Kind: hin.OpUpsertEdge, Relation: "writes", Src: author, Dst: "p1", Weight: 1}}
		if seq, ok := routedWrite(t, client, front.URL, "failover-"+author, ops); ok {
			acks = append(acks, acked{author, seq})
		} else {
			t.Fatalf("write %d never acked within the deadline", i)
		}
	}
	for i := 0; i < 8; i++ {
		write(i)
	}

	// Let the stream replicate before the kill: failover can only preserve
	// write availability when some follower has caught up to every acked
	// sequence — the election gate refuses candidates below the acked floor
	// (that refusal, not luck, is what makes acked deltas unlosable). An
	// acked-but-unreplicated tail would instead stall writes until the old
	// primary returns, which is the safety trade this architecture makes.
	waitReplicated(t, client, front.URL, acks[len(acks)-1].seq)

	// Kill the primary mid-stream. Writes must keep succeeding (after a
	// bounded failover window) against the newly elected replica.
	first.kill()
	for i := 8; i < 16; i++ {
		write(i)
	}
	second := waitPrimary(t, rt, reps)
	if second == first {
		t.Fatal("router re-elected the killed replica")
	}

	// Revive the old primary: it must rejoin as a follower of the new one
	// and converge, discarding any unacked fork it crashed with.
	first.revive()
	for i := 16; i < 20; i++ {
		write(i)
	}

	rows := waitFleetConverged(t, client, front.URL, 3)
	maxAcked := acks[len(acks)-1].seq
	if rows[0].WALSeq < maxAcked {
		t.Fatalf("converged wal_seq %d below last acked seq %d: acked deltas lost", rows[0].WALSeq, maxAcked)
	}

	// Every acked delta, bit-identical on every live replica.
	for _, a := range acks {
		want := -1.0
		for _, tr := range reps {
			var pair struct {
				Score float64 `json:"score"`
			}
			getJSON(t, client, tr.ts.URL+"/v1/pair?path=APA&source="+a.author+"&target=Tom", &pair)
			if pair.Score <= 0 {
				t.Fatalf("acked delta %s (seq %d) not readable on %s: score %v", a.author, a.seq, tr.ts.URL, pair.Score)
			}
			if want < 0 {
				want = pair.Score
			} else if pair.Score != want {
				t.Fatalf("replica %s scores %v for %s, others %v: not bit-identical", tr.ts.URL, pair.Score, a.author, want)
			}
		}
	}
	t.Logf("%d acked writes survived failover; converged at seq %d fingerprint %s",
		len(acks), rows[0].WALSeq, rows[0].Fingerprint)
}

// TestFollowReadYourWrites: a router-acked write carries its WAL sequence,
// and a read echoing it as X-Min-WAL-Seq is only served by replicas that
// have replicated at least that far — never silently by a stale follower.
func TestFollowReadYourWrites(t *testing.T) {
	rt, front, reps := newReplicatedCluster(t, 3)
	client := &http.Client{Timeout: 10 * time.Second}
	waitPrimary(t, rt, reps)

	ops := []hin.Op{{Kind: hin.OpUpsertEdge, Relation: "writes", Src: "Ryw", Dst: "p1", Weight: 1}}
	seq, ok := routedWrite(t, client, front.URL, "ryw-1", ops)
	if !ok {
		t.Fatal("write never acked")
	}

	// Read-your-writes: the answer must reflect the write, immediately.
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/pair?path=APA&source=Ryw&target=Tom", nil)
	req.Header.Set("X-Min-WAL-Seq", fmt.Sprint(seq))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var pair struct {
		Score float64 `json:"score"`
	}
	if err := decodeBody(resp, &pair); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || pair.Score <= 0 {
		t.Fatalf("read-your-writes pair = %d score %v", resp.StatusCode, pair.Score)
	}

	// A floor the fleet cannot have reached must refuse, not serve stale.
	req, _ = http.NewRequest(http.MethodGet, front.URL+"/v1/pair?path=APA&source=Ryw&target=Tom", nil)
	req.Header.Set("X-Min-WAL-Seq", fmt.Sprint(seq+100000))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := decodeBody(resp, &eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Code != "stale_replicas" {
		t.Fatalf("unreachable floor answered %d code %q, want 503 stale_replicas", resp.StatusCode, eb.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("stale_replicas refusal has no Retry-After")
	}

	// The same refusal on every other read the router serves. A top-k
	// /v1/relevance is proxied whole (it once answered 503 no_replicas with
	// no Retry-After: the floor was lost on that branch); a /v1/batch
	// answers 200 and refuses per slot.
	stale := func(path string, body any) *http.Response {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPost, front.URL+path, bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Min-WAL-Seq", fmt.Sprint(seq+100000))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp = stale("/v1/relevance", map[string]any{"source": "Ryw", "source_type": "author", "target_type": "author", "k": 3})
	eb = errorBody{}
	if err := decodeBody(resp, &eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Code != "stale_replicas" || resp.Header.Get("Retry-After") == "" {
		t.Errorf("top-k relevance under an unreachable floor answered %d code %q Retry-After %q, want 503 stale_replicas with Retry-After",
			resp.StatusCode, eb.Code, resp.Header.Get("Retry-After"))
	}
	resp = stale("/v1/batch", map[string]any{"queries": []map[string]any{
		{"kind": "pair", "path": "APA", "source": "Ryw", "target": "Tom"},
		{"kind": "topk", "path": "APC", "source": "Ryw", "k": 2},
	}})
	var br struct {
		Results []errorBody `json:"results"`
	}
	if err := decodeBody(resp, &br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(br.Results) != 2 {
		t.Fatalf("batch under an unreachable floor answered %d with %d slots, want 200 with 2", resp.StatusCode, len(br.Results))
	}
	for i, slot := range br.Results {
		if slot.Code != "stale_replicas" {
			t.Errorf("batch slot %d under an unreachable floor: code %q (%s), want stale_replicas", i, slot.Code, slot.Error)
		}
	}
}

// TestMinWALSeqHeader: the read-your-writes floor is parsed as an unsigned
// 64-bit integer or refused — an unparseable or overflowing header is 400,
// never silently "no floor" (a stale read served 200) or a wrapped, lower
// floor.
func TestMinWALSeqHeader(t *testing.T) {
	rt, _ := newCluster(t, 2) // plain replicas: wal_seq 0 fleet-wide
	for _, tc := range []struct {
		header string
		status int
		code   string
	}{
		{"", http.StatusOK, ""},
		{"0", http.StatusOK, ""},
		{"42", http.StatusServiceUnavailable, "stale_replicas"},
		{"abc", http.StatusBadRequest, "bad_request"},
		{"-1", http.StatusBadRequest, "bad_request"},
		{"18446744073709551615", http.StatusServiceUnavailable, "stale_replicas"}, // 2^64-1: the largest floor
		{"18446744073709551616", http.StatusBadRequest, "bad_request"},            // 2^64: once wrapped to 0
		{"18446744073709651616", http.StatusBadRequest, "bad_request"},            // 2^64+100000: once wrapped to 100000
	} {
		for _, target := range []string{"/v1/pair?path=APA&source=Tom&target=Mary", "/v1/schema"} {
			req := httptest.NewRequest(http.MethodGet, target, nil)
			req.Header["X-Min-Wal-Seq"] = []string{tc.header} // set even when empty
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, req)
			var eb errorBody
			json.Unmarshal(rec.Body.Bytes(), &eb)
			if rec.Code != tc.status || eb.Code != tc.code {
				t.Errorf("X-Min-WAL-Seq %q on %s: %d code %q, want %d %q", tc.header, target, rec.Code, eb.Code, tc.status, tc.code)
			}
			if wantRA := tc.code == "stale_replicas"; (rec.Header().Get("Retry-After") != "") != wantRA {
				t.Errorf("X-Min-WAL-Seq %q on %s: Retry-After %q", tc.header, target, rec.Header().Get("Retry-After"))
			}
		}
	}
}

func decodeBody(resp *http.Response, into any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}

// TestDivergenceDetection: two standalone replicas written different
// batches at the same wal_seq — equal sequence, conflicting fingerprints.
// The router's probe cross-check must flag the non-canonical one in
// /v1/admin/replicas and raise the divergence gauge within one probe
// interval, and the primary election must never land on the diverged side.
func TestDivergenceDetection(t *testing.T) {
	// No follower loops: the replicas are deliberately written apart.
	repA, repB := newWALReplica(t), newWALReplica(t)
	client := &http.Client{Timeout: 10 * time.Second}
	for tr, author := range map[*testReplica]string{repA: "Split", repB: "Brain"} {
		resp, body := postJSON(t, client, tr.ts.URL+"/v1/admin/edges", map[string]any{
			"key": "diverge-1",
			"ops": []hin.Op{{Kind: hin.OpUpsertEdge, Relation: "writes", Src: author, Dst: "p1", Weight: 1}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("direct write to %s: %d %s", tr.ts.URL, resp.StatusCode, body)
		}
	}

	rt, err := New([]string{repA.ts.URL, repB.ts.URL},
		WithHealthInterval(20*time.Millisecond), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var rb struct {
			Primary  string        `json:"primary"`
			Replicas []replicaBody `json:"replicas"`
		}
		getJSON(t, client, front.URL+"/v1/admin/replicas", &rb)
		diverged := 0
		for _, rep := range rb.Replicas {
			if rep.Diverged {
				diverged++
				if rep.Primary || rep.URL == rb.Primary {
					t.Fatalf("diverged replica %s elected primary", rep.URL)
				}
			}
		}
		if diverged == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("divergence never flagged: %+v", rb.Replicas)
		}
		time.Sleep(10 * time.Millisecond)
	}
	metrics := getText(t, client, front.URL+"/metrics")
	if !strings.Contains(metrics, "hetesim_router_fingerprint_divergence 1") {
		t.Error("hetesim_router_fingerprint_divergence gauge not raised to 1")
	}
	if !strings.Contains(metrics, `hetesim_router_replica_diverged`) {
		t.Error("per-replica divergence gauge missing from /metrics")
	}
}
