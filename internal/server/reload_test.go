package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetesim/internal/hin"
)

// reloadSchema builds the bibliographic test schema shared by the reload
// tests: authors write papers, papers are published in conferences.
func reloadSchema() *hin.Schema {
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("published_in", "paper", "conference")
	return s
}

// reloadGraph builds a graph with gen extra authors, so successive
// generations have distinct fingerprints while the base queries keep
// working across every generation.
func reloadGraph(t testing.TB, gen int) *hin.Graph {
	t.Helper()
	b := hin.NewBuilder(reloadSchema())
	b.AddEdge("writes", "Tom", "p1")
	b.AddEdge("writes", "Mary", "p2")
	b.AddEdge("writes", "Mary", "p1")
	b.AddEdge("published_in", "p1", "KDD")
	b.AddEdge("published_in", "p2", "SIGMOD")
	for i := 0; i < gen; i++ {
		b.AddEdge("writes", fmt.Sprintf("gen%d", i), "p2")
	}
	return b.MustBuild()
}

// writeGraphFile persists g where the server's reload will re-read it.
func writeGraphFile(t testing.TB, path string, g *hin.Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := hin.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHotReloadUnderLoad is the headline reload guarantee: while query
// traffic runs continuously, several graph reloads swap the serving
// generation and not one request fails — in-flight queries drain against
// the set they started with, new ones see the new graph. Run with -race
// this also proves the swap is properly synchronized.
func TestHotReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.json")
	writeGraphFile(t, graphPath, reloadGraph(t, 0))

	srv := New(reloadGraph(t, 0), WithReloadFrom(graphPath), WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	srv.MarkReady()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var (
		stop     atomic.Bool
		failures atomic.Int64
		served   atomic.Int64
		wg       sync.WaitGroup
	)
	urls := []string{
		ts.URL + "/v1/pair?path=APC&source=Tom&target=KDD",
		ts.URL + "/v1/topk?path=APCPA&source=Mary&k=5",
		ts.URL + "/readyz",
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				url := urls[(w+i)%len(urls)]
				resp, err := http.Get(url)
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					t.Errorf("GET %s = %d: %s", url, resp.StatusCode, body)
					failures.Add(1)
				}
				resp.Body.Close()
				served.Add(1)
			}
		}(w)
	}

	// A batch worker alongside the GET workers: every batch resolves one
	// engine-set snapshot, so its slots must all answer against a single
	// generation, and HS(Tom, KDD | APC) is exactly 1 in every generation
	// (Tom's one paper is KDD's one paper) — a swap mid-batch that mixed
	// generations or dropped shared chain state would surface here.
	batchReq, err := json.Marshal(batchRequest{Queries: []batchQueryBody{
		{Kind: "pair", Path: "APC", Source: "Tom", Target: "KDD"},
		{Kind: "pair", Path: "APC", Source: "Tom", Target: "KDD", Raw: true},
		{Kind: "topk", Path: "APCPA", Source: "Mary", K: 5},
		{Kind: "single_source", Path: "APC", Source: "Mary"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(batchReq))
			if err != nil {
				failures.Add(1)
				continue
			}
			var body batchResponse
			decodeErr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || decodeErr != nil {
				t.Errorf("POST /v1/batch = %d (%v)", resp.StatusCode, decodeErr)
				failures.Add(1)
				continue
			}
			for i, res := range body.Results {
				if res.Error != "" {
					t.Errorf("batch slot %d failed during reload: %s (%s)", i, res.Error, res.Code)
					failures.Add(1)
				}
			}
			for _, i := range []int{0, 1} {
				if body.Results[i].Score == nil || *body.Results[i].Score != 1 {
					t.Errorf("batch slot %d: HS(Tom,KDD|APC) = %v, want exactly 1", i, body.Results[i].Score)
					failures.Add(1)
				}
			}
			served.Add(1)
		}
	}()

	// Several reload cycles through distinct graph generations while the
	// workers hammer the query surface.
	fingerprints := make(map[string]bool)
	for gen := 1; gen <= 3; gen++ {
		writeGraphFile(t, graphPath, reloadGraph(t, gen))
		res, err := srv.Reload(context.Background())
		if err != nil {
			t.Fatalf("reload gen %d: %v", gen, err)
		}
		fingerprints[res.Fingerprint] = true
		time.Sleep(30 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed across hot reloads", n, served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("load generator served no requests; test proves nothing")
	}
	if len(fingerprints) != 3 {
		t.Fatalf("3 reloads produced %d distinct fingerprints", len(fingerprints))
	}

	// The final generation is what new queries see: gen2 exists only in
	// generation 3 of the graph.
	resp, err := http.Get(ts.URL + "/v1/topk?path=APCPA&source=gen2&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query for a node of the reloaded generation = %d", resp.StatusCode)
	}
}

// TestReloadEndpoint drives POST /v1/admin/reload end to end: a good
// reload answers 200 with the new generation's shape, a broken graph file
// answers 500 and leaves the old graph serving, and a server without a
// configured source refuses.
func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.json")
	writeGraphFile(t, graphPath, reloadGraph(t, 1))

	srv := New(reloadGraph(t, 0), WithReloadFrom(graphPath), WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	srv.MarkReady()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	oldFP := srv.current().fingerprint

	resp, err := http.Post(ts.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ok struct {
		Status string       `json:"status"`
		Reload ReloadResult `json:"reload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ok.Status != "ok" {
		t.Fatalf("reload = %d %+v", resp.StatusCode, ok)
	}
	if ok.Reload.Nodes != reloadGraph(t, 1).TotalNodes() {
		t.Errorf("reloaded nodes = %d", ok.Reload.Nodes)
	}
	if srv.current().fingerprint == oldFP {
		t.Fatal("reload left the old graph serving")
	}

	// A corrupt graph file must not dethrone the serving graph.
	servingFP := srv.current().fingerprint
	if err := os.WriteFile(graphPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload of corrupt graph = %d: %s", resp.StatusCode, body)
	}
	if srv.current().fingerprint != servingFP {
		t.Fatal("failed reload replaced the serving graph")
	}
	if !srv.Ready() {
		t.Fatal("failed reload left the server not ready")
	}

	// No configured source: the endpoint refuses outright.
	bare := New(reloadGraph(t, 0))
	bare.MarkReady()
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	resp, err = http.Post(tsBare.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload without a source = %d", resp.StatusCode)
	}
}

// TestWarmStartFromSnapshot proves the boot path: one server materializes
// a path and saves a snapshot; a second server over the same graph warm-
// starts from it and has the chain matrices in cache before any query or
// precompute runs.
func TestWarmStartFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "chains.snap")

	first := New(reloadGraph(t, 0), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	if err := first.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	if err := first.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Only chain matrices are persisted; transition/edge caches rebuild
	// cheaply from the graph.
	wantChains := first.current().engine.CacheStats().Chain
	if wantChains == 0 {
		t.Fatal("precompute cached no chains; snapshot would be empty")
	}

	second := New(reloadGraph(t, 0), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	if n := second.current().engine.CacheSize(); n != 0 {
		t.Fatalf("fresh server has %d cached matrices before warm start", n)
	}
	warm, err := second.WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("warm start found a valid snapshot but reported cold")
	}
	if n := second.current().engine.CacheStats().Chain; n != wantChains {
		t.Fatalf("warm-started cache has %d chains, want %d", n, wantChains)
	}

	// A server over a different graph generation must reject the snapshot
	// as a mismatch and start cold — never serve another graph's matrices.
	other := New(reloadGraph(t, 5), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	warm, err = other.WarmStart()
	if err == nil || warm {
		t.Fatalf("foreign snapshot admitted: warm=%v err=%v", warm, err)
	}
	if n := other.current().engine.CacheSize(); n != 0 {
		t.Fatalf("rejected snapshot still left %d matrices cached", n)
	}

	// Bit-flipped snapshot: rejected with a reason, cold start, no panic.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged := New(reloadGraph(t, 0), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	warm, err = damaged.WarmStart()
	if err == nil || warm {
		t.Fatalf("corrupt snapshot admitted: warm=%v err=%v", warm, err)
	}

	// Missing snapshot: a clean cold start, not an error.
	cold := New(reloadGraph(t, 0), WithSnapshotPath(filepath.Join(dir, "absent.snap")))
	warm, err = cold.WarmStart()
	if err != nil || warm {
		t.Fatalf("missing snapshot: warm=%v err=%v, want cold and nil", warm, err)
	}
}

// TestWarmStartSkipsEmbedSections boots from a snapshot written by the last
// build that had the topk-approx plan — its exportSnapshot, after a forced
// topk-approx query over reloadGraph(t, 0) — so the file carries an "embed:"
// section this build has no decoder for. The chains are admitted, the first
// top-k is answered from them without materializing anything, and the file
// is not counted as corrupt.
func TestWarmStartSkipsEmbedSections(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", "v2_with_embeds.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("embed:E:")) {
		t.Fatal("fixture carries no embed: section; the test proves nothing")
	}
	snapPath := filepath.Join(t.TempDir(), "chains.snap") // a copy: Close saves over it
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptBefore := metSnapshotCorrupt.Value()

	srv := New(reloadGraph(t, 0), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	warm, err := srv.WarmStart()
	if err != nil || !warm {
		t.Fatalf("warm start from a snapshot with embed: sections: warm=%v err=%v", warm, err)
	}
	if n := srv.current().engine.CacheStats().Chain; n != 3 {
		t.Fatalf("admitted %d chains, want the fixture's 3", n)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var body topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APCPA&source=Tom&k=3&trace=1", http.StatusOK, &body)
	want := []hitBody{{ID: "Tom", Score: 1}, {ID: "Mary", Score: 0.7071067811865475}}
	if len(body.Results) != len(want) || body.Results[0] != want[0] || body.Results[1] != want[1] {
		t.Errorf("results = %+v, want %+v (what the writing build answered)", body.Results, want)
	}
	hits := 0
	for _, sp := range body.Trace.Spans {
		if sp.Name == "cache_miss" || sp.Name == "chain_multiply" {
			t.Errorf("first top-k after the warm start shows a %s span: not answered warm", sp.Name)
		}
		if sp.Name == "cache_hit" {
			hits++
		}
	}
	if hits == 0 {
		t.Error("first top-k after the warm start read no cached chain")
	}
	if got := metSnapshotCorrupt.Value(); got != corruptBefore {
		t.Errorf("hetesim_snapshot_corrupt_total moved %d -> %d", corruptBefore, got)
	}

	// What this build saves has no embed: section and is still version 2.
	if err := srv.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(saved, []byte("embed:")) {
		t.Error("saved snapshot still carries an embed: section")
	}
	if saved[4] != 2 {
		t.Errorf("saved snapshot has version byte %d, want 2 (a bump would make a mixed fleet refuse it)", saved[4])
	}
}

// TestWarmStartSkipsOddChains boots from a snapshot written by the last build
// that met odd paths on the edge-object type — its exportSnapshot after APCPA
// and APCP queries over reloadGraph(t, 0) — so three of its seven chains are
// APCP's "SE(…)"/"TE(…)" half-chains no code builds any more. They are skipped
// and logged, the four step chains are admitted, APCPA is answered warm with
// the writing build's bits, and APCP is answered from step chains alone.
func TestWarmStartSkipsOddChains(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", "v2_with_odd_chains.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "chains.snap") // a copy: Close saves over it
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptBefore := metSnapshotCorrupt.Value()
	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	srv := New(reloadGraph(t, 0), WithSnapshotPath(snapPath), WithLogf(logf))
	t.Cleanup(srv.Close)
	warm, err := srv.WarmStart()
	if err != nil || !warm {
		t.Fatalf("warm start from a snapshot with odd-path chains: warm=%v err=%v", warm, err)
	}
	if n := srv.current().engine.CacheStats().Chain; n != 4 {
		t.Fatalf("admitted %d chains, want the fixture's 4 step chains", n)
	}
	mu.Lock()
	logged := strings.Contains(strings.Join(logs, "\n"), "skipped 3 odd-path chains")
	mu.Unlock()
	if !logged {
		t.Errorf("load log does not count the 3 skipped chains: %q", logs)
	}
	if got := metSnapshotCorrupt.Value(); got != corruptBefore {
		t.Errorf("hetesim_snapshot_corrupt_total moved %d -> %d", corruptBefore, got)
	}
	for key := range srv.current().engine.ExportChains() {
		if strings.Contains(key, "SE(") || strings.Contains(key, "TE(") {
			t.Errorf("edge-object chain %q admitted", key)
		}
	}

	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var even topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APCPA&source=Tom&k=3&trace=1", http.StatusOK, &even)
	want := []hitBody{{ID: "Tom", Score: 1}, {ID: "Mary", Score: 0.7071067811865475}}
	if len(even.Results) != len(want) || even.Results[0] != want[0] || even.Results[1] != want[1] {
		t.Errorf("APCPA results = %+v, want %+v (what the writing build answered)", even.Results, want)
	}
	for _, sp := range even.Trace.Spans {
		if sp.Name == "cache_miss" || sp.Name == "chain_multiply" {
			t.Errorf("first APCPA top-k after the warm start shows a %s span: not answered warm", sp.Name)
		}
	}
	// The writing build's APCP answers, bit for bit.
	var odd topKBody
	getJSON(t, ts.URL+"/v1/topk?path=APCP&source=Tom&k=1", http.StatusOK, &odd)
	if len(odd.Results) != 1 || odd.Results[0] != (hitBody{ID: "p1", Score: 1}) {
		t.Errorf("APCP results = %+v, want p1 at 1", odd.Results)
	}
	var pair pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APCP&source=Mary&target=p1", http.StatusOK, &pair)
	if pair.Score != 0.7071067811865475 {
		t.Errorf("APCP pair (Mary, p1) = %v, want 0.7071067811865475", pair.Score)
	}
}

// TestReloadWarmsFromSnapshot checks a hot-reload re-warms the incoming
// engine set from the snapshot when the snapshot matches the new graph.
func TestReloadWarmsFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.json")
	snapPath := filepath.Join(dir, "chains.snap")
	writeGraphFile(t, graphPath, reloadGraph(t, 2))

	// Save a snapshot for generation 2 — the generation the reload loads.
	donor := New(reloadGraph(t, 2), WithSnapshotPath(snapPath))
	if err := donor.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	if err := donor.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}

	srv := New(reloadGraph(t, 0), WithReloadFrom(graphPath), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	srv.MarkReady()
	res, err := srv.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmChains == 0 {
		t.Fatal("reload into the snapshot's generation imported no chains")
	}
	if n := srv.current().engine.CacheSize(); n == 0 {
		t.Fatal("reloaded engine has an empty cache despite a matching snapshot")
	}
}

// TestReloadBusy checks overlapping reloads: the loser answers 409 and
// the winner's swap still lands.
func TestReloadBusy(t *testing.T) {
	srv := New(reloadGraph(t, 0), WithReloadFrom("/nonexistent"))
	srv.MarkReady()
	srv.st.reloading.Store(true)
	_, err := srv.Reload(context.Background())
	srv.st.reloading.Store(false)
	if !errors.Is(err, errReloadBusy) {
		t.Fatalf("overlapping reload err = %v, want errReloadBusy", err)
	}
}
