package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
	"hetesim/internal/snapshot"
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

// TestWarmStartSkipsEmbedSections boots through WithSnapshotPath from files
// the parent build (the last one that stored chains) wrote over
// reloadGraph(t, 0):
//
//   - a -snapshot-path file, its SaveSnapshot after APCPA and APC
//     precomputes, with "chain:" sections, plus the "embed:" section and the
//     odd-path "SE(…)"/"TE(…)" chains that still older builds wrote;
//   - a GET /v1/admin/state body after an APCPA precompute: chain sections,
//     "graph" and "seq".
//
// Each boots as bootOldFile checks. The skipped sections' CRCs are still
// verified: a byte flipped in a state's graph section fails the load.
func TestWarmStartSkipsEmbedSections(t *testing.T) {
	for _, in := range []struct {
		name, file string
		skipped    []string // section names the warm start skips
	}{
		{"embed-fixture", "parent_chains.snap", []string{"chain:C:", "embed:"}},
		{"state-body", "parent_state.snap", []string{"chain:C:", "\x05\x00graph", "\x03\x00seq"}},
	} {
		t.Run(in.name, func(t *testing.T) {
			bootOldFile(t, filepath.Join("testdata", in.file), in.skipped)
		})
	}

	// The graph section is skipped, not unchecked.
	state, err := os.ReadFile(filepath.Join("testdata", "parent_state.snap"))
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(state, []byte("\x05\x00graph")) + 2 + len("graph") + 8 // first byte of its data
	state[at+16] ^= 1
	snapPath := filepath.Join(t.TempDir(), "flipped.snap")
	if err := os.WriteFile(snapPath, state, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(reloadGraph(t, 0), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	if warm, err := srv.WarmStart(); warm || err == nil || !strings.Contains(err.Error(), `section "graph" CRC mismatch`) {
		t.Fatalf("a state with a flipped graph byte: warm=%v err=%v, want the graph section's CRC mismatch", warm, err)
	}
}

// TestWarmStartSkipsOddChains boots, as bootOldFile checks, from the parent
// build's -snapshot-path file, whose APCP chains include the "SE(…)"/"TE(…)"
// half-chains over the edge-object type that no code builds any more.
func TestWarmStartSkipsOddChains(t *testing.T) {
	bootOldFile(t, filepath.Join("testdata", "parent_chains.snap"), []string{"SE(", "TE("})
}

// bootOldFile boots a server over reloadGraph(t, 0) from a copy of the file
// at path, which must carry each of the skipped section names. The file lists
// no paths, so the server boots cold without counting it corrupt, caches no
// chain, and serves the bits a fresh engine serves. The first save rewrites
// the file in the new form: a path list and nothing else, which the next boot
// rebuilds.
func bootOldFile(t *testing.T, path string, skipped []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range skipped {
		if !bytes.Contains(raw, []byte(name)) {
			t.Fatalf("fixture carries no %q section; the test proves nothing", name)
		}
	}
	snapPath := filepath.Join(t.TempDir(), "paths.snap") // a copy: the save rewrites it
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptBefore := metSnapshotCorrupt.Value()

	srv := New(reloadGraph(t, 0), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	if warm, err := srv.WarmStart(); err != nil || warm {
		t.Fatalf("warm start from a file that lists no paths: warm=%v err=%v, want cold and nil", warm, err)
	}
	if got := metSnapshotCorrupt.Value(); got != corruptBefore {
		t.Errorf("hetesim_snapshot_corrupt_total moved %d -> %d", corruptBefore, got)
	}
	if n := srv.current().engine.CacheStats().Chain; n != 0 {
		t.Errorf("%d chains cached: an old file's chains must be ignored", n)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	fresh := httptest.NewServer(New(reloadGraph(t, 0), WithLogf(t.Logf)).Handler())
	t.Cleanup(fresh.Close)
	for _, q := range []string{
		"/v1/topk?path=APCPA&source=Tom&k=3",
		"/v1/topk?path=APCP&source=Tom&k=2",
		"/v1/pair?path=APCP&source=Mary&target=p1",
	} {
		var got, want struct {
			Score   *float64  `json:"score"`
			Results []hitBody `json:"results"`
		}
		getJSON(t, ts.URL+q, http.StatusOK, &got)
		getJSON(t, fresh.URL+q, http.StatusOK, &want)
		if fmt.Sprint(bitsOf(got.Score), got.Results) != fmt.Sprint(bitsOf(want.Score), want.Results) {
			t.Errorf("%s = %v %+v, a fresh engine answers %v %+v", q, got.Score, got.Results, want.Score, want.Results)
		}
	}

	// The first save writes a path list and nothing the old file held.
	if err := srv.Precompute("APCPA"); err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	saved, err := snapshot.Load(snapshot.OS{}, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved.Sections) != 1 || saved.Sections[0].Name != "specs" || string(saved.Sections[0].Data) != "APCPA" {
		t.Errorf("saved snapshot holds %+v, want one specs section listing APCPA", saved.Sections)
	}
	if raw, _ := os.ReadFile(snapPath); raw[4] != 2 {
		t.Errorf("saved snapshot has version byte %d, want 2 (a bump would make a mixed fleet refuse it)", raw[4])
	}
	next := New(reloadGraph(t, 0), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	t.Cleanup(next.Close)
	if warm, err := next.WarmStart(); err != nil || !warm {
		t.Fatalf("warm start from the rewritten file: warm=%v err=%v", warm, err)
	}
}

// bitsOf is a score's bit pattern, or nil for no score.
func bitsOf(f *float64) any {
	if f == nil {
		return nil
	}
	return math.Float64bits(*f)
}

// waitChains waits until srv's serving engine caches at least n chains — a
// background warm-up landing.
func waitChains(t *testing.T, srv *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); srv.current().engine.CacheStats().Chain < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("serving engine caches %d chains after 10s, want %d", srv.current().engine.CacheStats().Chain, n)
		}
	}
}

// TestReloadWarmsFromSnapshot checks a hot-reload rebuilds the remembered
// paths in the incoming engine set, in the background, and then saves the
// path list under the new generation's fingerprint, so the next boot warms
// the reloaded graph.
func TestReloadWarmsFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.json")
	snapPath := filepath.Join(dir, "paths.snap")
	writeGraphFile(t, graphPath, reloadGraph(t, 2))

	srv := New(reloadGraph(t, 0), WithReloadFrom(graphPath), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	if err := srv.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	want := srv.current().engine.CacheStats().Chain
	srv.MarkReady()
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitChains(t, srv, want)
	fp := srv.current().fingerprint
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if snap, err := snapshot.Load(snapshot.OS{}, snapPath); err == nil && snap.Fingerprint == fp {
			if specs := snapshot.DecodeSpecs(snap); fmt.Sprint(specs) != "[APC]" {
				t.Fatalf("saved specs %q, want [APC]", specs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the path list was never saved under the reloaded generation's fingerprint")
		}
	}
	next := New(reloadGraph(t, 2), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	t.Cleanup(next.Close)
	if warm, err := next.WarmStart(); err != nil || !warm || next.current().engine.CacheStats().Chain != want {
		t.Fatalf("boot over the reloaded graph: warm=%v err=%v, %d chains, want %d", warm, err, next.current().engine.CacheStats().Chain, want)
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
