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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetesim/internal/chaos"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/metapath"
	"hetesim/internal/wal"
)

// postMutation sends one batch to POST /v1/admin/edges and decodes the
// response, failing the test on transport errors.
func postMutation(t testing.TB, url, key string, ops []hin.Op) (*http.Response, mutateBody) {
	t.Helper()
	body, err := json.Marshal(mutateRequest{Key: key, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/admin/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mb mutateBody
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &mb); err != nil {
			t.Fatalf("decoding mutation response %s: %v", raw, err)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp, mb
}

func upsert(rel, src, dst string, w float64) hin.Op {
	return hin.Op{Kind: hin.OpUpsertEdge, Relation: rel, Src: src, Dst: dst, Weight: w}
}

// mutationBatches is the shared delta sequence of the durability tests:
// three acked batches whose cumulative application defines the expected
// post-crash state.
func mutationBatches() [][]hin.Op {
	return [][]hin.Op{
		{upsert("writes", "Carl", "p1", 1), upsert("writes", "Carl", "p2", 2)},
		{{Kind: hin.OpDeleteEdge, Relation: "writes", Src: "Carl", Dst: "p2"}},
		{upsert("published_in", "p2", "VLDB", 1), {Kind: hin.OpAddNode, Type: "author", ID: "Dana"}},
	}
}

// applyAll folds batches over g.
func applyAll(t testing.TB, g *hin.Graph, batches [][]hin.Op) *hin.Graph {
	t.Helper()
	for _, ops := range batches {
		ng, _, err := g.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		g = ng
	}
	return g
}

// TestMutateEndpoint drives the happy path and the request-level error
// surface of POST /v1/admin/edges.
func TestMutateEndpoint(t *testing.T) {
	dir := t.TempDir()
	srv := New(reloadGraph(t, 0), WithWALPath(filepath.Join(dir, "edges.wal")), WithLogf(t.Logf))
	srv.MarkReady()
	if _, err := srv.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, mb := postMutation(t, ts.URL, "batch-1", mutationBatches()[0])
	if resp.StatusCode != http.StatusOK || mb.Status != "applied" {
		t.Fatalf("mutation = %d %+v", resp.StatusCode, mb)
	}
	if mb.Seq == 0 || mb.WALBytes == 0 || mb.Rewarm == nil {
		t.Fatalf("ack missing durability evidence: %+v", mb)
	}

	// The mutation is visible to queries immediately: Carl now reaches KDD.
	var pair pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Carl&target=KDD", http.StatusOK, &pair)
	if pair.Score <= 0 {
		t.Errorf("HS(Carl, KDD) = %v after mutation, want > 0", pair.Score)
	}

	// Same idempotency key: acked again, not re-applied.
	fpBefore := srv.current().fingerprint
	resp, mb = postMutation(t, ts.URL, "batch-1", mutationBatches()[0])
	if resp.StatusCode != http.StatusOK || mb.Status != "duplicate" {
		t.Fatalf("duplicate = %d %+v", resp.StatusCode, mb)
	}
	if srv.current().fingerprint != fpBefore {
		t.Fatal("duplicate batch mutated the graph")
	}

	// An invalid batch leaves no trace: 404 for the unknown edge, and the
	// log does not grow (replay would otherwise fail on it forever).
	sizeBefore := srv.st.wal.Size()
	resp, _ = postMutation(t, ts.URL, "bad-batch",
		[]hin.Op{{Kind: hin.OpDeleteEdge, Relation: "writes", Src: "nobody", Dst: "p1"}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("invalid delete = %d, want 404", resp.StatusCode)
	}
	if srv.st.wal.Size() != sizeBefore {
		t.Fatal("rejected batch was logged")
	}
	resp, _ = postMutation(t, ts.URL, "", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", resp.StatusCode)
	}
	resp, _ = postMutation(t, ts.URL, "bad-weight", []hin.Op{upsert("writes", "X", "p1", -1)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative weight = %d, want 400", resp.StatusCode)
	}

	// Without a WAL the endpoint is disabled outright.
	bare := New(reloadGraph(t, 0))
	bare.MarkReady()
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	resp, _ = postMutation(t, tsBare.URL, "k", mutationBatches()[0])
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("mutation without WAL = %d, want 501", resp.StatusCode)
	}
}

// TestMutateCrashReplay is the headline durability guarantee: kill the
// process (abandon it without closing the WAL) after acked mutations, boot
// a replacement from the base graph, and the replayed state — graph
// fingerprint, chain cache, query answers — is bit-identical to a cold
// engine built over the mutated graph. Idempotency keys survive too.
func TestMutateCrashReplay(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	base := reloadGraph(t, 0)

	first := New(base, WithWALPath(walPath), WithLogf(t.Logf))
	first.MarkReady()
	if _, err := first.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	if err := first.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.Handler())
	for i, ops := range mutationBatches() {
		resp, mb := postMutation(t, ts.URL, fmt.Sprintf("batch-%d", i), ops)
		if resp.StatusCode != http.StatusOK || mb.Status != "applied" {
			t.Fatalf("batch %d = %d %+v", i, resp.StatusCode, mb)
		}
	}
	mutatedFP := first.current().fingerprint
	ts.Close() // crash: no CloseWAL, no compaction

	// Boot a replacement over the same base graph, warm the same path
	// before replay (the boot-time precompute), then replay the log.
	second := New(base, WithWALPath(walPath), WithLogf(t.Logf))
	if err := second.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	st, err := second.OpenWAL()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != len(mutationBatches()) || st.TruncatedBytes != 0 || st.SetAside != "" {
		t.Fatalf("replay status = %+v", st)
	}
	if second.current().fingerprint != mutatedFP {
		t.Fatalf("replayed fingerprint %016x, want %016x", second.current().fingerprint, mutatedFP)
	}

	// Bit-identity: every chain the replayed engine carries matches a cold
	// engine built directly over the mutated graph.
	coldGraph := applyAll(t, base, mutationBatches())
	cold := core.NewEngine(coldGraph)
	if err := cold.Precompute(context.Background(), metapath.MustParse(coldGraph.Schema(), "APC")); err != nil {
		t.Fatal(err)
	}
	coldChains := cold.ExportChains()
	warmChains := second.current().engine.ExportChains()
	if len(warmChains) == 0 {
		t.Fatal("replay dropped every warmed chain")
	}
	for k, wm := range warmChains {
		cm, ok := coldChains[k]
		if !ok {
			t.Errorf("replayed cache holds %q unknown to the cold build", k)
			continue
		}
		if !cm.Equal(wm) {
			t.Errorf("chain %q diverges between replay and cold rebuild", k)
		}
	}

	// Acked keys are remembered across the crash: the retry is a duplicate,
	// not a second application.
	second.MarkReady()
	ts2 := httptest.NewServer(second.Handler())
	defer ts2.Close()
	resp, mb := postMutation(t, ts2.URL, "batch-0", mutationBatches()[0])
	if resp.StatusCode != http.StatusOK || mb.Status != "duplicate" {
		t.Fatalf("post-crash retry = %d %+v, want duplicate", resp.StatusCode, mb)
	}
}

// TestMutateTornTailRecovery cuts the log at record boundaries and in the
// middle of the final record: boot must recover exactly the whole-batch
// prefix, discard the torn tail, and keep accepting writes.
func TestMutateTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	base := reloadGraph(t, 0)

	first := New(base, WithWALPath(walPath), WithLogf(t.Logf))
	first.MarkReady()
	if _, err := first.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.Handler())
	sizes := []int64{} // log size after each acked batch
	for i, ops := range mutationBatches() {
		_, mb := postMutation(t, ts.URL, fmt.Sprintf("batch-%d", i), ops)
		sizes = append(sizes, mb.WALBytes)
	}
	ts.Close()
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	cuts := []struct {
		at   int64
		want int // recoverable whole batches
	}{
		{sizes[0], 1},
		{sizes[1], 2},
		{sizes[0] + (sizes[1]-sizes[0])/2, 1}, // mid-record: batch 2 torn away
		{sizes[2] - 1, 2},                     // one byte short of batch 3
	}
	for _, cut := range cuts {
		if err := os.WriteFile(walPath, full[:cut.at], 0o644); err != nil {
			t.Fatal(err)
		}
		srv := New(base, WithWALPath(walPath), WithLogf(t.Logf))
		st, err := srv.OpenWAL()
		if err != nil {
			t.Fatalf("cut %d: %v", cut.at, err)
		}
		if st.Replayed != cut.want {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut.at, st.Replayed, cut.want)
		}
		wantG := applyAll(t, base, mutationBatches()[:cut.want])
		if srv.current().fingerprint != wantG.Fingerprint() {
			t.Errorf("cut %d: fingerprint diverges from cold rebuild of the surviving prefix", cut.at)
		}
		srv.CloseWAL()
	}
}

// TestMutateDuplicateKeyReplay plants a crash-window duplicate in the log —
// the same idempotency key appended twice, as a client retry racing a
// crash-before-ack would leave it — and checks replay applies it once.
func TestMutateDuplicateKeyReplay(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	base := reloadGraph(t, 0)
	ops := mutationBatches()[0]

	first := New(base, WithWALPath(walPath), WithLogf(t.Logf))
	first.MarkReady()
	if _, err := first.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.Handler())
	postMutation(t, ts.URL, "retry-key", ops)
	ts.Close()
	if err := first.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Re-open the raw log and append the same key again.
	l, _, err := wal.Open(first.st.fsys, walPath, base.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("retry-key", ops); err != nil {
		t.Fatal(err)
	}
	l.Close()

	second := New(base, WithWALPath(walPath), WithLogf(t.Logf))
	st, err := second.OpenWAL()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 1 {
		t.Fatalf("replayed %d batches of a duplicated key, want 1", st.Replayed)
	}
	want := applyAll(t, base, [][]hin.Op{ops})
	if second.current().fingerprint != want.Fingerprint() {
		t.Fatal("duplicate replay double-applied the batch")
	}
}

// TestMutateAppendFailure injects a write failure into the WAL append: the
// client gets 500, nothing is acked, and — because the failed append rolls
// the log back — a retry with the same key succeeds cleanly and a restart
// sees exactly one application.
func TestMutateAppendFailure(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	base := reloadGraph(t, 0)
	cfs := chaos.NewFS()

	srv := New(base, WithWALPath(walPath), WithSnapshotFS(cfs), WithLogf(t.Logf))
	srv.MarkReady()
	if _, err := srv.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfs.FailWriteAt(10, errors.New("disk full")) // torn mid-record write
	resp, _ := postMutation(t, ts.URL, "k1", mutationBatches()[0])
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("append failure = %d, want 500", resp.StatusCode)
	}
	if e := decodeError(t, resp.Body); e.Code != "wal_append_failed" {
		t.Errorf("code = %q, want wal_append_failed", e.Code)
	}
	if srv.current().fingerprint != base.Fingerprint() {
		t.Fatal("failed append still mutated the graph")
	}

	cfs.DisarmAll()
	resp, mb := postMutation(t, ts.URL, "k1", mutationBatches()[0])
	if resp.StatusCode != http.StatusOK || mb.Status != "applied" {
		t.Fatalf("retry after failed append = %d %+v", resp.StatusCode, mb)
	}

	// Restart: exactly one application of k1.
	second := New(base, WithWALPath(walPath), WithLogf(t.Logf))
	st, err := second.OpenWAL()
	if err != nil {
		t.Fatal(err)
	}
	want := applyAll(t, base, [][]hin.Op{mutationBatches()[0]})
	if st.Replayed != 1 || second.current().fingerprint != want.Fingerprint() {
		t.Fatalf("replay after torn append: %+v, fingerprint match=%v",
			st, second.current().fingerprint == want.Fingerprint())
	}
}

// TestMutateCompaction checks size-triggered compaction: the log folds into
// a freshly written base graph, the next boot replays nothing, and the
// idempotency table survives via the checkpoint record.
func TestMutateCompaction(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	graphPath := filepath.Join(dir, "graph.json")
	base := reloadGraph(t, 0)
	writeGraphFile(t, graphPath, base)

	srv := New(base, WithWALPath(walPath), WithReloadFrom(graphPath),
		WithWALCompactBytes(1), WithLogf(t.Logf)) // compact after every batch
	srv.MarkReady()
	if _, err := srv.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i, ops := range mutationBatches() {
		resp, mb := postMutation(t, ts.URL, fmt.Sprintf("batch-%d", i), ops)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d = %d %+v", i, resp.StatusCode, mb)
		}
		// Sequences stay monotonic across the compaction after each batch.
		if mb.Seq != uint64(i)+1 {
			t.Fatalf("batch %d acked with seq %d, want %d", i, mb.Seq, i+1)
		}
	}
	mutatedFP := srv.current().fingerprint

	// The on-disk base graph now IS the mutated graph.
	f, err := os.Open(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := hin.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Fingerprint() != mutatedFP {
		t.Fatal("compaction did not fold mutations into the base graph")
	}

	// Boot from the compacted base: nothing to replay, keys checkpointed.
	second := New(onDisk, WithWALPath(walPath), WithLogf(t.Logf))
	st, err := second.OpenWAL()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 0 || st.Checkpointed != len(mutationBatches()) {
		t.Fatalf("post-compaction boot = %+v, want 0 replayed / %d checkpointed",
			st, len(mutationBatches()))
	}
	second.MarkReady()
	ts2 := httptest.NewServer(second.Handler())
	defer ts2.Close()
	resp, mb := postMutation(t, ts2.URL, "batch-0", mutationBatches()[0])
	if resp.StatusCode != http.StatusOK || mb.Status != "duplicate" {
		t.Fatalf("checkpointed key not honored: %d %+v", resp.StatusCode, mb)
	}
	// The checkpoint carried the original ack sequence across the
	// compaction and the restart — not a placeholder.
	if mb.Seq != 1 {
		t.Fatalf("checkpointed duplicate reports seq %d, want original ack seq 1", mb.Seq)
	}
	// And a fresh batch continues the sequence past every checkpointed ack.
	resp, mb = postMutation(t, ts2.URL, "batch-new", mutationBatches()[0])
	if resp.StatusCode != http.StatusOK || mb.Seq != uint64(len(mutationBatches()))+1 {
		t.Fatalf("post-checkpoint batch = %d seq %d, want seq %d",
			resp.StatusCode, mb.Seq, len(mutationBatches())+1)
	}
}

// TestReloadRebindsWAL is the lost-generation regression test: an operator
// replaces the graph file while the log is empty, reloads, and then
// mutates. The reload must rebind the open log to the new base
// fingerprint — otherwise the post-reload acks land in a log that the
// next boot sets aside, silently losing them.
func TestReloadRebindsWAL(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	graphPath := filepath.Join(dir, "graph.json")
	base := reloadGraph(t, 0)
	writeGraphFile(t, graphPath, base)

	first := New(base, WithWALPath(walPath), WithReloadFrom(graphPath), WithLogf(t.Logf))
	t.Cleanup(first.Close)
	first.MarkReady()
	if _, err := first.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.Handler())
	// One acked batch before the swap, so the rebind must also carry the
	// idempotency table into the new generation.
	resp, mb := postMutation(t, ts.URL, "pre-swap", mutationBatches()[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-swap batch = %d %+v", resp.StatusCode, mb)
	}
	preSwapSeq := mb.Seq

	// Fold the pending batch into the base (a swap over pending batches is
	// refused — TestCompactionRefusesReplacedBase), then the operator swap:
	// a different generation lands at the graph path and a reload adopts it.
	if _, err := first.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	replacement := reloadGraph(t, 2)
	writeGraphFile(t, graphPath, replacement)
	if _, err := first.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if first.current().fingerprint != replacement.Fingerprint() {
		t.Fatal("reload did not adopt the replacement graph")
	}

	// Mutate the new generation, then crash without closing the WAL.
	resp, mb = postMutation(t, ts.URL, "post-swap", mutationBatches()[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap batch = %d %+v", resp.StatusCode, mb)
	}
	if mb.Seq <= preSwapSeq {
		t.Fatalf("post-swap seq %d did not advance past pre-swap seq %d", mb.Seq, preSwapSeq)
	}
	ts.Close() // crash

	// Boot from the replacement base: the log must replay, not be set aside.
	second := New(replacement, WithWALPath(walPath), WithLogf(t.Logf))
	st, err := second.OpenWAL()
	if err != nil {
		t.Fatal(err)
	}
	if st.SetAside != "" {
		t.Fatalf("post-reload log set aside (%s): acked batch lost", st.SetAside)
	}
	if st.Replayed != 1 {
		t.Fatalf("replayed %d batches, want 1", st.Replayed)
	}
	want := applyAll(t, replacement, [][]hin.Op{mutationBatches()[0]})
	if second.current().fingerprint != want.Fingerprint() {
		t.Fatal("replayed generation diverges from the mutated replacement")
	}
	// The pre-swap key crossed both the compaction and the rebind.
	second.MarkReady()
	ts2 := httptest.NewServer(second.Handler())
	defer ts2.Close()
	resp, mb = postMutation(t, ts2.URL, "pre-swap", mutationBatches()[0])
	if resp.StatusCode != http.StatusOK || mb.Status != "duplicate" || mb.Seq != preSwapSeq {
		t.Fatalf("pre-swap retry after rebind = %d %+v, want duplicate seq %d", resp.StatusCode, mb, preSwapSeq)
	}
}

// TestCompactionRefusesReplacedBase: with batches pending in the log, an
// operator drops a replacement graph at the base path. Compaction (and
// the reload that triggers it) must refuse to overwrite the replacement
// with the in-memory graph rather than silently destroying it.
func TestCompactionRefusesReplacedBase(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	graphPath := filepath.Join(dir, "graph.json")
	base := reloadGraph(t, 0)
	writeGraphFile(t, graphPath, base)

	srv := New(base, WithWALPath(walPath), WithReloadFrom(graphPath), WithLogf(t.Logf))
	srv.MarkReady()
	if _, err := srv.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := postMutation(t, ts.URL, "pending", mutationBatches()[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	servingFP := srv.current().fingerprint

	replacement := reloadGraph(t, 2)
	writeGraphFile(t, graphPath, replacement)

	if _, err := srv.Reload(context.Background()); err == nil {
		t.Fatal("reload over a replaced base with pending batches succeeded")
	}
	// The replacement file is untouched and the serving graph unchanged.
	f, err := os.Open(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := hin.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Fingerprint() != replacement.Fingerprint() {
		t.Fatal("failed reload still overwrote the operator's replacement file")
	}
	if srv.current().fingerprint != servingFP {
		t.Fatal("failed reload changed the serving graph")
	}
	// The write path keeps working against the old generation.
	resp, _ = postMutation(t, ts.URL, "still-works", mutationBatches()[1])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation after refused compaction = %d", resp.StatusCode)
	}
}

// TestAppliedKeyTableBounded: the idempotency table evicts FIFO beyond
// maxAppliedKeys, so compaction checkpoints stay writable no matter how
// many keyed batches a client sends.
func TestAppliedKeyTableBounded(t *testing.T) {
	srv := New(reloadGraph(t, 0), WithLogf(t.Logf))
	st := srv.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := 0; i < maxAppliedKeys+100; i++ {
		st.rememberKeyLocked(fmt.Sprintf("key-%d", i), uint64(i)+1)
	}
	if len(st.applied) != maxAppliedKeys || len(st.appliedOrder) != maxAppliedKeys {
		t.Fatalf("table holds %d/%d keys, want bounded at %d",
			len(st.applied), len(st.appliedOrder), maxAppliedKeys)
	}
	if _, ok := st.applied["key-0"]; ok {
		t.Fatal("oldest key survived eviction")
	}
	if seq, ok := st.applied[fmt.Sprintf("key-%d", maxAppliedKeys+99)]; !ok || seq != maxAppliedKeys+100 {
		t.Fatalf("newest key = %d, %v", seq, ok)
	}
	entries := st.checkpointEntriesLocked()
	if len(entries) != maxAppliedKeys {
		t.Fatalf("checkpoint snapshot holds %d entries", len(entries))
	}
	// Oldest-first, sequences monotone — the order replay restores.
	if entries[0].Seq != 101 || entries[len(entries)-1].Seq != maxAppliedKeys+100 {
		t.Fatalf("checkpoint order: first seq %d, last seq %d", entries[0].Seq, entries[len(entries)-1].Seq)
	}
}

// TestMutateCompactionCrashWindow simulates a crash between the two halves
// of a compaction — base graph renamed, log not yet reset. Boot from the
// new base must set the stale log aside (its batches are already folded
// in), losing nothing.
func TestMutateCompactionCrashWindow(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	base := reloadGraph(t, 0)

	first := New(base, WithWALPath(walPath), WithLogf(t.Logf))
	first.MarkReady()
	if _, err := first.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.Handler())
	postMutation(t, ts.URL, "k", mutationBatches()[0])
	ts.Close()
	mutated := applyAll(t, base, [][]hin.Op{mutationBatches()[0]})

	// Crash window: the mutated graph became the base, the log still names
	// the old base fingerprint.
	second := New(mutated, WithWALPath(walPath), WithLogf(t.Logf))
	st, err := second.OpenWAL()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 0 || st.SetAside == "" {
		t.Fatalf("stale-log boot = %+v, want set-aside and no replay", st)
	}
	if second.current().fingerprint != mutated.Fingerprint() {
		t.Fatal("stale log replayed into the wrong generation")
	}
	if _, err := os.Stat(st.SetAside); err != nil {
		t.Fatalf("set-aside log not preserved on disk: %v", err)
	}
}

// TestMutateDrainConflict is the shutdown-drain regression test: once
// BeginDrain is called, mutations and reloads answer 409/draining while
// queries keep being served.
func TestMutateDrainConflict(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.json")
	writeGraphFile(t, graphPath, reloadGraph(t, 0))
	srv := New(reloadGraph(t, 0), WithWALPath(filepath.Join(dir, "edges.wal")),
		WithReloadFrom(graphPath), WithLogf(t.Logf))
	srv.MarkReady()
	if _, err := srv.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.BeginDrain()
	resp, _ := postMutation(t, ts.URL, "k", mutationBatches()[0])
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mutation during drain = %d, want 409", resp.StatusCode)
	}
	if e := decodeError(t, resp.Body); e.Code != "draining" {
		t.Errorf("mutation drain code = %q, want draining", e.Code)
	}
	resp2, err := http.Post(ts.URL+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("reload during drain = %d, want 409", resp2.StatusCode)
	}
	if e := decodeError(t, resp2.Body); e.Code != "draining" {
		t.Errorf("reload drain code = %q, want draining", e.Code)
	}
	resp2.Body.Close()

	// Queries drain normally.
	var pair pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &pair)
	if pair.Score != 1 {
		t.Errorf("query during drain = %v, want 1", pair.Score)
	}
}

// TestMutateBackpressure503 holds the writers' admission lock and checks a concurrent
// batch is shed with 503 + Retry-After instead of queueing.
func TestMutateBackpressure503(t *testing.T) {
	dir := t.TempDir()
	srv := New(reloadGraph(t, 0), WithWALPath(filepath.Join(dir, "edges.wal")), WithLogf(t.Logf))
	srv.MarkReady()
	if _, err := srv.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.st.admit.Lock()
	resp, _ := postMutation(t, ts.URL, "k", mutationBatches()[0])
	srv.st.admit.Unlock()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("concurrent mutation = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if e := decodeError(t, resp.Body); e.Code != "mutation_in_flight" {
		t.Errorf("code = %q, want mutation_in_flight", e.Code)
	}
}

// TestHotReloadUnderLoadWithMutations is the mixed-version guarantee under
// concurrency: GET workers assert an invariant score while a mutation
// worker rewrites unrelated edges and reloads swap generations — all under
// -race. HS(Tom, KDD | APC) is exactly 1 in every generation and under
// every mutation this test issues, so any mixed-version row or dropped
// normalization would surface as a wrong score.
func TestHotReloadUnderLoadWithMutations(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.json")
	writeGraphFile(t, graphPath, reloadGraph(t, 0))

	srv := New(reloadGraph(t, 0), WithReloadFrom(graphPath),
		WithWALPath(filepath.Join(dir, "edges.wal")), WithLogf(t.Logf))
	t.Cleanup(srv.Close)
	srv.MarkReady()
	if _, err := srv.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var (
		stop     atomic.Bool
		failures atomic.Int64
		served   atomic.Int64
		applied  atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Get(ts.URL + "/v1/pair?path=APC&source=Tom&target=KDD")
				if err != nil {
					failures.Add(1)
					continue
				}
				var pair pairBody
				decodeErr := json.NewDecoder(resp.Body).Decode(&pair)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decodeErr != nil {
					t.Errorf("pair under mutation = %d (%v)", resp.StatusCode, decodeErr)
					failures.Add(1)
					continue
				}
				if pair.Score != 1 {
					t.Errorf("HS(Tom,KDD|APC) = %v mid-mutation, want exactly 1", pair.Score)
					failures.Add(1)
				}
				served.Add(1)
			}
		}()
	}

	// The mutation worker touches only p2's author set — Tom's row of the
	// writes transition and KDD's column of published_in never change.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			ops := []hin.Op{upsert("writes", fmt.Sprintf("mut%d", i%7), "p2", float64(i%5+1))}
			body, _ := json.Marshal(mutateRequest{Key: fmt.Sprintf("load-%d", i), Ops: ops})
			resp, err := http.Post(ts.URL+"/v1/admin/edges", "application/json", bytes.NewReader(body))
			if err != nil {
				failures.Add(1)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				applied.Add(1)
			case http.StatusServiceUnavailable:
				// legitimate backpressure against the reload's compaction
			default:
				t.Errorf("mutation under load = %d", resp.StatusCode)
				failures.Add(1)
			}
		}
	}()

	// Reload cycles while both workers run; each reload first compacts the
	// log into the graph file, so the re-read picks up the mutations.
	for gen := 0; gen < 3; gen++ {
		time.Sleep(30 * time.Millisecond)
		if _, err := srv.Reload(context.Background()); err != nil {
			t.Fatalf("reload %d under mutation load: %v", gen, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed across mutating reloads", n, served.Load())
	}
	if served.Load() == 0 || applied.Load() == 0 {
		t.Fatalf("load proves nothing: served=%d applied=%d", served.Load(), applied.Load())
	}

	// Post-chaos sanity: the serving graph answers the invariant exactly.
	var pair pairBody
	getJSON(t, ts.URL+"/v1/pair?path=APC&source=Tom&target=KDD", http.StatusOK, &pair)
	if pair.Score != 1 {
		t.Fatalf("final HS(Tom,KDD|APC) = %v, want 1", pair.Score)
	}
}
