package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetesim/internal/hin"
	"hetesim/internal/router"
	"hetesim/internal/wal"
)

// newWALServer is newWALReplica served over httptest.
func newWALServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	srv := newWALReplica(t, opts...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newWALReplica builds a ready server over the generation-0 reload graph
// with an open WAL and a base graph file for compaction.
func newWALReplica(t *testing.T, opts ...Option) *Server {
	t.Helper()
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.bin")
	writeGraphFile(t, graphPath, reloadGraph(t, 0))
	all := append([]Option{
		WithWALPath(filepath.Join(dir, "edges.wal")),
		WithReloadFrom(graphPath),
		WithLogf(t.Logf),
	}, opts...)
	srv := New(reloadGraph(t, 0), all...)
	t.Cleanup(srv.Close)
	srv.MarkReady()
	if _, err := srv.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// startFollower runs srv's follower loop against target until test end.
func startFollower(t *testing.T, srv *Server, target string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.RunFollower(ctx, FollowerOptions{
			Target:   target,
			Interval: 5 * time.Millisecond,
			Logf:     t.Logf,
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// waitConverged polls until follower matches primary in both sequence and
// fingerprint.
func waitConverged(t *testing.T, primary, follower *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if follower.current().seq == primary.current().seq &&
			follower.current().fingerprint == primary.current().fingerprint &&
			!follower.Diverged() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower did not converge: seq %d/%d, fingerprint %016x/%016x, diverged=%v",
		follower.current().seq, primary.current().seq,
		follower.current().fingerprint, primary.current().fingerprint, follower.Diverged())
}

// TestFollowerConvergence is the basic replication guarantee: batches
// acked on the primary arrive on the follower through the WAL tail and
// produce a bit-identical graph — same fingerprint, same scores — while
// the follower reports its replication view at /readyz and refuses direct
// writes.
func TestFollowerConvergence(t *testing.T) {
	primary, pts := newWALServer(t)
	follower, fts := newWALServer(t)
	startFollower(t, follower, pts.URL)

	for i, ops := range mutationBatches() {
		resp, mb := postMutation(t, pts.URL, fmt.Sprintf("rep-%d", i), ops)
		if resp.StatusCode != http.StatusOK || mb.Status != "applied" {
			t.Fatalf("batch %d = %d %+v", i, resp.StatusCode, mb)
		}
	}
	waitConverged(t, primary, follower)

	// Scores must be bit-identical across replicas (HeteSim is
	// deterministic over a given graph; equality of fingerprints implies
	// equality of graphs, this is the end-to-end check of it).
	var pp, fp pairBody
	getJSON(t, pts.URL+"/v1/pair?path=APC&source=Carl&target=KDD", http.StatusOK, &pp)
	getJSON(t, fts.URL+"/v1/pair?path=APC&source=Carl&target=KDD", http.StatusOK, &fp)
	if pp.Score != fp.Score || pp.Score <= 0 {
		t.Fatalf("replicated score %v != primary score %v", fp.Score, pp.Score)
	}

	// The follower's /readyz carries its replication view.
	var ready map[string]any
	getJSON(t, fts.URL+"/readyz", http.StatusOK, &ready)
	if ready["role"] != "follower" || ready["follows"] != pts.URL {
		t.Errorf("follower readyz = %v", ready)
	}
	if lag, ok := ready["replication_lag_seconds"].(float64); !ok || lag < 0 || lag > 60 {
		t.Errorf("replication_lag_seconds = %v", ready["replication_lag_seconds"])
	}
	if ready["diverged"] != false {
		t.Errorf("diverged = %v", ready["diverged"])
	}
	// The primary is not follower-configured: no replication fields.
	var pready map[string]any
	getJSON(t, pts.URL+"/readyz", http.StatusOK, &pready)
	if _, ok := pready["follows"]; ok {
		t.Errorf("primary readyz leaked follower fields: %v", pready)
	}

	// Writes to the follower are refused and redirected.
	resp, _ := postMutation(t, fts.URL, "direct", mutationBatches()[0])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower write = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Hetesim-Primary"); got != pts.URL {
		t.Errorf("X-Hetesim-Primary = %q, want %q", got, pts.URL)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("not_primary refusal has no Retry-After")
	}

	// Follower restart resumes from its own log, not from scratch.
	seq := follower.current().seq
	if seq == 0 {
		t.Fatal("follower position is 0 after convergence")
	}
}

// TestFollowTailEndpoint pins the wire surface of GET /v1/admin/wal: a
// decodable CRC-framed stream with consistent header stamps, bounded
// reads, empty caught-up pulls, and parameter validation.
func TestFollowTailEndpoint(t *testing.T) {
	primary, pts := newWALServer(t)
	for i, ops := range mutationBatches() {
		if resp, _ := postMutation(t, pts.URL, fmt.Sprintf("t-%d", i), ops); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d status %d", i, resp.StatusCode)
		}
	}

	get := func(q string) *http.Response {
		resp, err := http.Get(pts.URL + "/v1/admin/wal" + q)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := get("?from=1")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail status = %d", resp.StatusCode)
	}
	raw := make([]byte, 1<<20)
	n, _ := io.ReadFull(resp.Body, raw)
	st, err := wal.DecodeStream(raw[:n])
	if err != nil {
		t.Fatalf("decoding tail stream: %v", err)
	}
	if st.Head != 3 || len(st.Batches) != 3 || st.Fingerprint != primary.current().fingerprint {
		t.Fatalf("stream = head %d, %d batches, fp %016x", st.Head, len(st.Batches), st.Fingerprint)
	}
	if got := resp.Header.Get("X-Hetesim-WAL-Seq"); got != "3" {
		t.Errorf("X-Hetesim-WAL-Seq = %q", got)
	}

	// Bounded pull and caught-up pull.
	resp = get("?from=2&max=1")
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if st, err = wal.DecodeStream(b); err != nil || len(st.Batches) != 1 || st.Batches[0].Seq != 2 || st.Head != 3 {
		t.Fatalf("bounded pull = %+v, %v", st, err)
	}
	resp = get("?from=4")
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if st, err = wal.DecodeStream(b); err != nil || len(st.Batches) != 0 || st.Head != 3 {
		t.Fatalf("caught-up pull = %+v, %v", st, err)
	}

	// Parameter validation.
	for _, q := range []string{"?from=x", "?max=0", "?max=-1"} {
		resp = get(q)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/admin/wal%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestFollowerResyncAfterCompaction covers compaction-while-following: the
// primary compacts its log past a stale follower's position, the tail read
// answers 410, and the follower falls back to a full state fetch — ending
// bit-identical, with its own base graph and log rebound to the new
// generation.
func TestFollowerResyncAfterCompaction(t *testing.T) {
	primary, pts := newWALServer(t)
	for i, ops := range mutationBatches() {
		if resp, _ := postMutation(t, pts.URL, fmt.Sprintf("c-%d", i), ops); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d status %d", i, resp.StatusCode)
		}
	}
	// Fold everything into the base: a follower at position 0 is now behind
	// the retained floor.
	if err := primary.st.compact(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(pts.URL + "/v1/admin/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("tail below floor = %d, want 410", resp.StatusCode)
	}
	if resp.Header.Get("X-Hetesim-WAL-Floor") != "4" {
		t.Errorf("X-Hetesim-WAL-Floor = %q, want 4", resp.Header.Get("X-Hetesim-WAL-Floor"))
	}

	follower, _ := newWALServer(t)
	startFollower(t, follower, pts.URL)
	waitConverged(t, primary, follower)
	if follower.current().seq != 3 {
		t.Fatalf("resynced position = %d, want 3", follower.current().seq)
	}
	// The resync rebound the follower's own log to the adopted base, so new
	// deltas replicate incrementally from here.
	if follower.st.wal.Fingerprint() != primary.current().fingerprint {
		t.Fatal("follower log not rebound to the resynced base")
	}
	if resp, mb := postMutation(t, pts.URL, "post-resync", []hin.Op{upsert("writes", "Dana", "p1", 1)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-resync write = %d %+v", resp.StatusCode, mb)
	}
	waitConverged(t, primary, follower)
}

// TestFollowerPromotedAfterResyncKeepsSeqMonotone is the regression test for the
// regressing ack: a follower whose own log is at position 0 resyncs from a
// primary that compacted at seq 3 — adopting the graph at 3 without logging a
// batch — and is then elected primary. Its first write must ack above the
// adopted position (the log used to continue from its own stale one and ack
// wal_seq 1). That the position also survives a reopen of the log is
// wal.TestResetContinuesAboveAdoptedSeq's.
func TestFollowerPromotedAfterResyncKeepsSeqMonotone(t *testing.T) {
	primary, pts := newWALServer(t)
	for i, ops := range mutationBatches() {
		if resp, _ := postMutation(t, pts.URL, fmt.Sprintf("p-%d", i), ops); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d status %d", i, resp.StatusCode)
		}
	}
	if err := primary.st.compact(); err != nil {
		t.Fatal(err)
	}

	// The router of this fleet: names the primary, then elects the follower.
	var elected atomic.Value
	elected.Store(pts.URL)
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/admin/primary" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"primary": elected.Load().(string)})
	}))
	t.Cleanup(router.Close)

	follower, fts := newWALServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		follower.RunFollower(ctx, FollowerOptions{Target: router.URL, Self: fts.URL, Interval: 5 * time.Millisecond, Logf: t.Logf})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	waitConverged(t, primary, follower)
	adopted := follower.current().seq
	if adopted != 3 {
		t.Fatalf("resynced follower serves seq %d, want 3", adopted)
	}

	elected.Store(fts.URL)
	for deadline := time.Now().Add(10 * time.Second); !follower.AcceptsWrites(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("follower never took the election")
		}
	}
	last := adopted
	for i := 0; i < 2; i++ {
		resp, mb := postMutation(t, fts.URL, fmt.Sprintf("promoted-%d", i), []hin.Op{upsert("writes", "Dana", fmt.Sprintf("p%d", i+1), 1)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("write %d to the promoted follower = %d", i, resp.StatusCode)
		}
		if mb.Seq != last+1 || follower.current().seq != mb.Seq {
			t.Fatalf("write %d acked seq %d (serving wal_seq %d) after %d: not strictly monotone", i, mb.Seq, follower.current().seq, last)
		}
		last = mb.Seq
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestFollowResyncIsOneGeneration is the regression test for the
// two-generation resync: one keyed write lands on the primary right after
// the follower's first resync response. The follower must still publish one
// generation — graph, wal_seq and chains from that one response — so the
// primary's materialized path answers warm on it, and the transfer is one
// state request, with no other admin fetch.
func TestFollowResyncIsOneGeneration(t *testing.T) {
	primary, follower := newWALReplica(t), newWALReplica(t)
	fleet := router.Inproc{"primary": primary.Handler(), "follower": follower.Handler()}
	direct := &http.Client{Transport: fleet}
	write := func(key string, ops []hin.Op) {
		var ack mutateBody
		if status := callJSON(t, direct, http.MethodPost, schedulePrimary+"/v1/admin/edges", mutateRequest{Key: key, Ops: ops}, &ack); status != http.StatusOK {
			t.Fatalf("write %s = %d", key, status)
		}
	}
	for i, ops := range mutationBatches() {
		write(fmt.Sprintf("b-%d", i), ops)
	}
	// Behind the compaction horizon, the empty-log follower must resync.
	if err := primary.st.compact(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Precompute("APCPA"); err != nil {
		t.Fatal(err)
	}
	resynced := primary.current()

	var paths []string
	raced := false
	client := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := fleet.RoundTrip(req)
		paths = append(paths, req.URL.Path)
		if req.URL.Path == "/v1/admin/state" && !raced {
			raced = true
			write("race", []hin.Op{upsert("writes", "Dana", "p1", 1)})
		}
		return resp, err
	})}
	corrupt := metSnapshotCorrupt.Value()
	follower.publish(followState{})
	o := FollowerOptions{Target: schedulePrimary, MaxBatch: defaultTailBatches, Client: client, Logf: t.Logf}
	follower.followTick(context.Background(), o)

	if !raced {
		t.Fatalf("the follower never resynced: requests %v", paths)
	}
	if got := follower.current(); got.seq != resynced.seq || got.fingerprint != resynced.fingerprint {
		t.Fatalf("resynced follower serves seq %d fingerprint %016x, want the transferred %d %016x",
			got.seq, got.fingerprint, resynced.seq, resynced.fingerprint)
	}
	if got := metSnapshotCorrupt.Value(); got != corrupt {
		t.Errorf("hetesim_snapshot_corrupt_total moved %d -> %d: the resync's chains were rejected", corrupt, got)
	}
	if want := []string{"/v1/admin/primary", "/v1/admin/wal", "/v1/admin/state"}; fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Errorf("resync requests %v, want %v: one state transfer, no other fetch", paths, want)
	}

	// The first query on the primary's materialized path builds nothing.
	var br batchResponse
	if status := callJSON(t, direct, http.MethodPost, "http://follower/v1/batch", groupBatch("APCPA"), &br); status != http.StatusOK {
		t.Fatalf("follower batch = %d", status)
	}
	if br.Stats.ChainBuilds != 0 {
		t.Errorf("the resynced follower's first APCPA batch built %d chains, want 0", br.Stats.ChainBuilds)
	}

	// The raced write replicates on the next tick.
	follower.followTick(context.Background(), o)
	if got, want := follower.current(), primary.current(); got.seq != want.seq || got.fingerprint != want.fingerprint {
		t.Fatalf("follower at seq %d fingerprint %016x after the next tick, primary at %d %016x",
			got.seq, got.fingerprint, want.seq, want.fingerprint)
	}
}

// TestFollowerDivergenceSelfHeals deliberately corrupts a follower's
// serving graph; the next caught-up poll's fingerprint comparison detects
// the fork, flags it, and a full resync converges it back.
func TestFollowerDivergenceSelfHeals(t *testing.T) {
	primary, pts := newWALServer(t)
	follower, fts := newWALServer(t)
	startFollower(t, follower, pts.URL)

	if resp, _ := postMutation(t, pts.URL, "d-0", mutationBatches()[0]); resp.StatusCode != http.StatusOK {
		t.Fatal("seed write failed")
	}
	waitConverged(t, primary, follower)

	// Corrupt the follower: swap in a graph it never replicated, keeping
	// its replication position — equal wal_seq, different fingerprint.
	follower.st.admit.Lock()
	bad, _, err := follower.current().g.Apply([]hin.Op{upsert("writes", "Tom", "p2", 9)})
	if err != nil {
		follower.st.admit.Unlock()
		t.Fatal(err)
	}
	follower.st.mu.Lock()
	follower.st.publish(follower.st.newEngineSet(bad), follower.current().seq)
	follower.st.mu.Unlock()
	follower.st.admit.Unlock()

	// Within a poll interval the follower must notice (the caught-up pull
	// compares fingerprints at equal seq), report it, and self-heal.
	deadline := time.Now().Add(10 * time.Second)
	sawDiverged := false
	for time.Now().Before(deadline) && !sawDiverged {
		var ready map[string]any
		getJSON(t, fts.URL+"/readyz", http.StatusOK, &ready)
		sawDiverged, _ = ready["diverged"].(bool)
		if follower.current().fingerprint == primary.current().fingerprint {
			break // already healed — the flag window can be shorter than our poll
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitConverged(t, primary, follower)
	var pp, fp pairBody
	getJSON(t, pts.URL+"/v1/pair?path=APC&source=Carl&target=KDD", http.StatusOK, &pp)
	getJSON(t, fts.URL+"/v1/pair?path=APC&source=Carl&target=KDD", http.StatusOK, &fp)
	if pp.Score != fp.Score {
		t.Fatalf("post-heal score %v != primary %v", fp.Score, pp.Score)
	}
}

// TestFollowTailReadsNeverShedWrites is the regression test for the
// follower-poll-sheds-a-write flake: tail reads and state fetches hammer the
// primary from four goroutines while 200 keyed batches are posted serially.
// Readers take the state lock, never the writers' admission lock, so not
// one write may answer 503 — and every tail response must still name one
// generation: replaying its batches through head onto the base graph
// reproduces the fingerprint it is stamped with.
func TestFollowTailReadsNeverShedWrites(t *testing.T) {
	_, pts := newWALServer(t)
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		streams []*wal.Stream
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				path := "/v1/admin/wal?from=1&max=1024"
				if (w+i)%4 == 0 {
					path = "/v1/admin/state"
				}
				resp, err := http.Get(pts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d: %s", path, resp.StatusCode, body)
					return
				}
				if path == "/v1/admin/state" {
					continue
				}
				st, err := wal.DecodeStream(body)
				if err != nil {
					t.Errorf("decoding tail stream: %v", err)
					return
				}
				mu.Lock()
				streams = append(streams, st)
				mu.Unlock()
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		ops := []hin.Op{upsert("writes", fmt.Sprintf("w%d", i%11), "p2", float64(i%5+1))}
		if resp, mb := postMutation(t, pts.URL, fmt.Sprintf("hammer-%d", i), ops); resp.StatusCode != http.StatusOK {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("write %d under tail/graph reads = %d %+v, want 200 (reads must never shed a write)", i, resp.StatusCode, mb)
		}
	}
	stop.Store(true)
	wg.Wait()

	if len(streams) == 0 {
		t.Fatal("no tail read completed; test proves nothing")
	}
	fps := map[uint64]uint64{0: reloadGraph(t, 0).Fingerprint()} // head -> fingerprint, memoized
	for _, st := range streams {
		if uint64(len(st.Batches)) != st.Head {
			t.Fatalf("tail from 1 holds %d batches but is stamped head %d", len(st.Batches), st.Head)
		}
		if _, ok := fps[st.Head]; !ok {
			g := reloadGraph(t, 0)
			for i, b := range st.Batches {
				if b.Seq != uint64(i)+1 {
					t.Fatalf("tail batch %d has seq %d", i, b.Seq)
				}
				g = applyAll(t, g, [][]hin.Op{b.Ops})
			}
			fps[st.Head] = g.Fingerprint()
		}
		if fps[st.Head] != st.Fingerprint {
			t.Fatalf("tail stamped (fingerprint %016x, head %d) but its batches replay to %016x",
				st.Fingerprint, st.Head, fps[st.Head])
		}
	}
}

// TestFollowRoleNeverTorn hammers /readyz and POST /v1/admin/edges on a
// follower-configured replica while a fake router flips the election among
// "you", "the other replica" and "nobody" every few milliseconds. Every
// /readyz body must be exactly one of the legal role shapes — standalone
// keys only, primary (role), or follower (role, follows,
// replication_lag_seconds, diverged) — with values that belong together,
// and every refused write must name a primary this replica could actually
// have been following. Run under -race (make chaos) it also proves the
// role is published and read without a data race.
func TestFollowRoleNeverTorn(t *testing.T) {
	_, pts := newWALServer(t)
	replica, rts := newWALServer(t)

	var elected atomic.Pointer[string]
	none := ""
	elected.Store(&none)
	fakeRouter := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/admin/primary" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, `{"primary":%q}`, *elected.Load())
	}))
	t.Cleanup(fakeRouter.Close)

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		replica.RunFollower(ctx, FollowerOptions{
			Target: fakeRouter.URL, Self: rts.URL, Interval: time.Millisecond, Logf: t.Logf,
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-followerDone
	})

	base := []string{"fingerprint", "snapshot_age_seconds", "status", "wal_seq"}
	shapes := map[string][]string{
		"":         base,
		"primary":  append([]string{"role"}, base...),
		"follower": append([]string{"diverged", "follows", "replication_lag_seconds", "role"}, base...),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var probes, refused, acked atomic.Int64
	wg.Add(3)
	go func() { // the election flips under everyone's feet
		defer wg.Done()
		choices := []string{rts.URL, pts.URL, ""}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				elected.Store(&choices[i%len(choices)])
			}
		}
	}()
	go func() { // readiness prober
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(rts.URL + "/readyz")
			if err != nil {
				t.Errorf("GET /readyz: %v", err)
				return
			}
			var body map[string]any
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("decoding /readyz: %v", err)
				return
			}
			probes.Add(1)
			role, _ := body["role"].(string)
			want, ok := shapes[role]
			if !ok {
				t.Errorf("/readyz role %q: %v", role, body)
				continue
			}
			if len(body) != len(want) {
				t.Errorf("/readyz shape for role %q has keys %v, want exactly %v", role, body, want)
			}
			for _, k := range want {
				if _, ok := body[k]; !ok {
					t.Errorf("/readyz role %q is missing %q: %v", role, k, body)
				}
			}
			if role == "follower" {
				if f, _ := body["follows"].(string); f != "" && f != pts.URL {
					t.Errorf("follower follows %q; the only other replica is %q", f, pts.URL)
				}
			}
		}
	}()
	go func() { // writer: acked while elected, refused with a pointer otherwise
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(rts.URL+"/v1/admin/edges", "application/json",
				strings.NewReader(fmt.Sprintf(`{"ops":[{"op":"upsert_edge","relation":"writes","source":"torn%d","target":"p1","weight":1}]}`, i)))
			if err != nil {
				t.Errorf("POST /v1/admin/edges: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				acked.Add(1)
			case http.StatusServiceUnavailable:
				refused.Add(1)
				if p := resp.Header.Get("X-Hetesim-Primary"); p != "" && p != pts.URL {
					t.Errorf("refused write points at %q; the only other replica is %q", p, pts.URL)
				}
			default:
				t.Errorf("write answered %d", resp.StatusCode)
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if probes.Load() == 0 || refused.Load() == 0 || acked.Load() == 0 {
		t.Fatalf("hammer too weak: %d probes, %d refused writes, %d acked writes", probes.Load(), refused.Load(), acked.Load())
	}
}
