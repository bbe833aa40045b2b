package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetesim/internal/chaos"
	"hetesim/internal/core"
	"hetesim/internal/hin"
	"hetesim/internal/snapshot"
	"hetesim/internal/wal"
)

// settledGoroutines waits up to a second for the goroutine count to fall
// to at most n — a goroutine that sent its result may still be on its way
// out — and returns the last count.
func settledGoroutines(n int) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); got > n && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return got
}

// applyDirect runs one client batch through the store's write path, as
// the mutation handler does.
func applyDirect(srv *Server, key string, ops []hin.Op) (applyResult, error) {
	srv.st.admit.Lock()
	defer srv.st.admit.Unlock()
	return srv.st.apply(context.Background(), wal.Batch{Key: key, Ops: ops}, false)
}

// TestApplyAppendFailurePublishesNothing fails the WAL append — a torn
// write, then a failed fsync — while the next generation is being built
// beside it: the client gets 500 wal_append_failed, the serving generation
// is the very one it was, wal_seq and the idempotency table do not move,
// and the build's goroutine is gone when the answer is.
func TestApplyAppendFailurePublishesNothing(t *testing.T) {
	for _, fault := range []string{"write", "fsync"} {
		t.Run(fault, func(t *testing.T) {
			cfs := chaos.NewFS()
			srv := New(reloadGraph(t, 0), WithWALPath(filepath.Join(t.TempDir(), "edges.wal")), WithSnapshotFS(cfs), WithLogf(t.Logf))
			t.Cleanup(srv.Close)
			srv.MarkReady()
			if _, err := srv.OpenWAL(); err != nil {
				t.Fatal(err)
			}
			if err := srv.Precompute("APC"); err != nil { // the build has chains to rewarm
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			if resp, mb := postMutation(t, ts.URL, "k0", mutationBatches()[0]); resp.StatusCode != http.StatusOK || mb.Seq != 1 {
				t.Fatalf("first write = %d %+v", resp.StatusCode, mb)
			}
			before, seq := srv.current(), srv.st.wal.LastSeq()
			keys := slices.Clone(srv.st.appliedOrder)
			goroutines := runtime.NumGoroutine()

			if fault == "write" {
				cfs.FailWriteAt(10, errors.New("disk full"))
			} else {
				cfs.FailSync(errors.New("fsync: input/output error"))
			}
			resp, _ := postMutation(t, ts.URL, "k1", mutationBatches()[1])
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("append failure = %d, want 500", resp.StatusCode)
			}
			if e := decodeError(t, resp.Body); e.Code != "wal_append_failed" {
				t.Fatalf("code = %q, want wal_append_failed", e.Code)
			}
			if srv.current() != before {
				t.Fatal("a batch that failed to log was published")
			}
			if got := srv.st.wal.LastSeq(); got != seq {
				t.Fatalf("wal_seq %d -> %d after a failed append", seq, got)
			}
			if _, ok := srv.st.applied["k1"]; ok || !slices.Equal(srv.st.appliedOrder, keys) {
				t.Fatalf("idempotency table moved: %v -> %v", keys, srv.st.appliedOrder)
			}
			if got := settledGoroutines(goroutines); got > goroutines {
				t.Fatalf("%d goroutines after the failed write, %d before", got, goroutines)
			}

			cfs.DisarmAll()
			if resp, mb := postMutation(t, ts.URL, "k1", mutationBatches()[1]); resp.StatusCode != http.StatusOK || mb.Seq != seq+1 {
				t.Fatalf("retry = %d %+v, want seq %d", resp.StatusCode, mb, seq+1)
			}
		})
	}
}

// TestApplyBuildPanicJoins makes the build beside the append panic in its
// rewarm: apply still waits for it (the panic has happened when apply
// returns, and no goroutine outlives the call), and since the batch is
// durable it publishes the generation cold instead of losing it — the log
// and the serving graph never disagree.
func TestApplyBuildPanicJoins(t *testing.T) {
	var logs []string
	var mu sync.Mutex
	srv := New(reloadGraph(t, 0), WithWALPath(filepath.Join(t.TempDir(), "edges.wal")), WithLogf(func(f string, a ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(f, a...))
		mu.Unlock()
	}))
	t.Cleanup(srv.Close)
	if _, err := srv.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	var panicked atomic.Bool
	rewarmFrom = func(*core.Engine, context.Context, *core.Engine, *hin.Dirty) (core.RewarmStats, error) {
		time.Sleep(20 * time.Millisecond) // outlast the append
		panicked.Store(true)
		panic("injected rewarm failure")
	}
	t.Cleanup(func() { rewarmFrom = (*core.Engine).RewarmFrom })
	goroutines := runtime.NumGoroutine()

	ops := mutationBatches()[0]
	res, err := applyDirect(srv, "k1", ops)
	if err != nil {
		t.Fatal(err)
	}
	if !panicked.Load() {
		t.Fatal("apply returned before the build it started finished")
	}
	if got := settledGoroutines(goroutines); got > goroutines {
		t.Fatalf("%d goroutines after apply, %d before", got, goroutines)
	}
	want := applyAll(t, reloadGraph(t, 0), [][]hin.Op{ops}).Fingerprint()
	if es := srv.current(); res.seq != 1 || es.seq != 1 || es.fingerprint != want || es.engine.CacheSize() != 0 {
		t.Fatalf("after a panicked build: seq %d/%d, fingerprint match %v, %d cached; want the batch served cold",
			res.seq, es.seq, es.fingerprint == want, es.engine.CacheSize())
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, "injected rewarm failure") }) {
		t.Fatalf("the build's panic was not logged: %q", logs)
	}
}

// bootLikeDaemon boots a server the way hetesimd does — WarmStart, then
// OpenWAL — and returns it, its log lines and the change in
// hetesim_snapshot_corrupt_total across the boot.
func bootLikeDaemon(t *testing.T, g *hin.Graph, walPath, snapPath string) (*Server, *WALStatus, []string, uint64) {
	t.Helper()
	var logs []string
	var mu sync.Mutex
	srv := New(g, WithWALPath(walPath), WithSnapshotPath(snapPath), WithLogf(func(f string, a ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(f, a...))
		mu.Unlock()
	}))
	t.Cleanup(srv.Close)
	corrupt := metSnapshotCorrupt.Value()
	if warm, err := srv.WarmStart(); err != nil || warm {
		t.Fatalf("warm start before replay: warm=%v err=%v, want it kept for after replay", warm, err)
	}
	st, err := srv.OpenWAL()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return srv, st, slices.Clone(logs), metSnapshotCorrupt.Value() - corrupt
}

// TestCleanRestartAfterWrite writes, closes (saving the path list under the
// post-write fingerprint) and reboots in hetesimd's order: the snapshot is
// not called corrupt, and the server is warm once the log has replayed. A
// snapshot that still names another graph after replay is rejected then,
// and counted once.
func TestCleanRestartAfterWrite(t *testing.T) {
	dir := t.TempDir()
	walPath, snapPath := filepath.Join(dir, "edges.wal"), filepath.Join(dir, "paths.snap")
	first := New(reloadGraph(t, 0), WithWALPath(walPath), WithSnapshotPath(snapPath), WithLogf(t.Logf))
	if _, err := first.OpenWAL(); err != nil {
		t.Fatal(err)
	}
	if err := first.Precompute("APC"); err != nil {
		t.Fatal(err)
	}
	if _, err := applyDirect(first, "k1", mutationBatches()[0]); err != nil {
		t.Fatal(err)
	}
	first.Close()

	srv, st, logs, corrupt := bootLikeDaemon(t, reloadGraph(t, 0), walPath, snapPath)
	if st.Replayed != 1 || corrupt != 0 || srv.current().engine.CacheStats().Chain == 0 {
		t.Fatalf("reboot: %+v, corrupt +%d, %d chains: want the batch replayed, nothing counted, warm",
			st, corrupt, srv.current().engine.CacheStats().Chain)
	}
	if i := slices.IndexFunc(logs, func(l string) bool { return strings.Contains(l, "rejected") }); i >= 0 {
		t.Fatalf("a clean restart logged %q", logs[i])
	}

	// A snapshot of a graph the log does not reach is stale for real.
	other := filepath.Join(dir, "other.snap")
	snap := &snapshot.Snapshot{Fingerprint: reloadGraph(t, 7).Fingerprint()}
	snapshot.EncodeSpecs(snap, []string{"APC"})
	if err := snapshot.Save(snapshot.OS{}, other, snap); err != nil {
		t.Fatal(err)
	}
	srv, _, logs, corrupt = bootLikeDaemon(t, reloadGraph(t, 0), filepath.Join(dir, "fresh.wal"), other)
	if corrupt != 1 || srv.current().engine.CacheSize() != 0 ||
		!slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, "snapshot rejected after wal replay") }) {
		t.Fatalf("a stale snapshot: corrupt +%d, %d cached, logs %q; want it rejected once after replay", corrupt, srv.current().engine.CacheSize(), logs)
	}
}

// TestParentWriteFixtureBootsWarm boots, in hetesimd's order, from a WAL and
// a -snapshot-path file the parent build wrote over reloadGraph(t, 300) (a
// graph of several fingerprint blocks per type and relation): a write that
// upserted gen150→p1 and Zoe→p2 and deleted Mary→p1, then Close. The WAL's
// header names the base graph's fingerprint and the snapshot the
// post-write one, both as the parent computed them, so the boot replays
// the batch rather than setting the log aside, and warms from the path
// list: the fingerprint is bit for bit what it was.
func TestParentWriteFixtureBootsWarm(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"parent_write.wal", "parent_write.snap"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const baseFP, writtenFP = 0xe06065f2d14dade8, 0x701c5af2f21c4550 // as the parent build computed them
	base := reloadGraph(t, 300)
	if fp := base.Fingerprint(); fp != baseFP {
		t.Fatalf("base fingerprint %016x, the parent's %016x", fp, uint64(baseFP))
	}
	srv, st, _, corrupt := bootLikeDaemon(t, base, filepath.Join(dir, "parent_write.wal"), filepath.Join(dir, "parent_write.snap"))
	es := srv.current()
	if st.Replayed != 1 || st.SetAside != "" || es.fingerprint != writtenFP || corrupt != 0 || es.engine.CacheStats().Chain == 0 {
		t.Fatalf("boot from the parent's files: %+v, fingerprint %016x (want %016x), corrupt +%d, %d chains",
			st, es.fingerprint, uint64(writtenFP), corrupt, es.engine.CacheStats().Chain)
	}
}
