package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hetesim/internal/chaos"
	"hetesim/internal/hin"
	"hetesim/internal/snapshot"
)

const testFP = uint64(0xfeedc0dedeadbeef)

func testOps(n int) []hin.Op {
	ops := []hin.Op{
		{Kind: hin.OpUpsertEdge, Relation: "writes", Src: "Ann", Dst: "p7", Weight: 2.5},
		{Kind: hin.OpAddNode, Type: "term", ID: "graphs"},
		{Kind: hin.OpDeleteEdge, Relation: "writes", Src: "Bob", Dst: "p4"},
	}
	return ops[:n]
}

func openFresh(t *testing.T, fsys snapshot.FS) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.wal")
	l, rep, err := Open(fsys, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Batches) != 0 || rep.TruncatedBytes != 0 || rep.SetAside != "" {
		t.Fatalf("fresh log replay = %+v", rep)
	}
	return l, path
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, path := openFresh(t, snapshot.OS{})
	want := []Batch{
		{Seq: 1, Key: "k1", Ops: testOps(3)},
		{Seq: 2, Key: "k2", Ops: testOps(1)},
		{Seq: 3, Key: "k2", Ops: testOps(2)}, // duplicate key: log preserves it
	}
	for _, b := range want {
		seq, err := l.Append(b.Key, b.Ops)
		if err != nil {
			t.Fatal(err)
		}
		if seq != b.Seq {
			t.Fatalf("assigned seq %d, want %d", seq, b.Seq)
		}
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep, err := Open(snapshot.OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(rep.Batches, want) {
		t.Fatalf("replayed %+v, want %+v", rep.Batches, want)
	}
	if rep.TruncatedBytes != 0 || len(rep.Checkpoint) != 0 {
		t.Fatalf("replay side state = %+v", rep)
	}
	if l2.Size() != size {
		t.Fatalf("size after reopen = %d, want %d", l2.Size(), size)
	}
	// Sequence numbering continues past the replayed batches.
	if seq, err := l2.Append("k3", testOps(1)); err != nil || seq != 4 {
		t.Fatalf("post-replay append seq = %d, %v; want 4", seq, err)
	}
}

// Every possible truncation point of a multi-batch log must replay to a
// whole-batch prefix — the torn record, wherever the tear lands, is
// discarded and the file truncated back to the last durable batch.
func TestTornTailEveryOffset(t *testing.T) {
	l, path := openFresh(t, snapshot.OS{})
	want := []Batch{
		{Seq: 1, Key: "a", Ops: testOps(3)},
		{Seq: 2, Key: "b", Ops: testOps(2)},
		{Seq: 3, Key: "c", Ops: testOps(1)},
	}
	boundaries := []int64{l.Size()} // valid prefix lengths: header, then after each batch
	for _, b := range want {
		if _, err := l.Append(b.Key, b.Ops); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, l.Size())
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(len(full)) - 1; cut >= boundaries[0]; cut-- {
		// Largest whole-batch boundary at or below the cut.
		wantValid := boundaries[0]
		wantBatches := 0
		for i, b := range boundaries {
			if b <= cut {
				wantValid, wantBatches = b, i
			}
		}
		p := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rep, err := Open(snapshot.OS{}, p, testFP)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(rep.Batches) != wantBatches {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut, len(rep.Batches), wantBatches)
		}
		if wantBatches > 0 && !reflect.DeepEqual(rep.Batches, want[:wantBatches]) {
			t.Fatalf("cut %d: replayed batches diverge from the acked prefix", cut)
		}
		if rep.TruncatedBytes != cut-wantValid {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, rep.TruncatedBytes, cut-wantValid)
		}
		if fi, _ := os.Stat(p); fi.Size() != wantValid {
			t.Fatalf("cut %d: file is %d bytes after recovery, want %d", cut, fi.Size(), wantValid)
		}
		// The recovered log must accept new appends at the right sequence.
		if seq, err := l2.Append("resume", testOps(1)); err != nil || seq != uint64(wantBatches)+1 {
			t.Fatalf("cut %d: resume append seq=%d err=%v", cut, seq, err)
		}
		l2.Close()
	}

	// Cut inside the header: unusable log is set aside, never deleted.
	for _, cut := range []int64{0, 1, headerSize - 1} {
		p := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rep, err := Open(snapshot.OS{}, p, testFP)
		if err != nil {
			t.Fatalf("header cut %d: %v", cut, err)
		}
		if cut == 0 {
			// Empty file parses as no header; still set aside.
		}
		if rep.SetAside == "" {
			t.Fatalf("header cut %d: not set aside", cut)
		}
		if _, err := os.Stat(rep.SetAside); err != nil {
			t.Fatalf("header cut %d: set-aside file missing: %v", cut, err)
		}
		l2.Close()
	}
}

// Kill the process at every byte offset of an append: the batch was never
// acknowledged, so after recovery the log must contain exactly the
// previously acked batches, and the rolled-back log must keep working.
func TestKillAtEveryAppendOffset(t *testing.T) {
	fsys := chaos.NewFS()
	l, path := openFresh(t, fsys)
	acked := []Batch{{Seq: 1, Key: "base", Ops: testOps(2)}}
	if _, err := l.Append("base", testOps(2)); err != nil {
		t.Fatal(err)
	}
	goodSize := l.Size()

	// Size the sweep: a full record of this batch shape.
	probe := append([]byte(nil), frameRecord(mustEncodeBatch(t, Batch{Seq: 2, Key: "kill", Ops: testOps(3)}))...)
	for off := int64(0); off < int64(len(probe)); off++ {
		fsys.FailWriteAt(off, nil)
		if _, err := l.Append("kill", testOps(3)); err == nil {
			t.Fatalf("offset %d: torn append succeeded", off)
		}
		fsys.DisarmAll()
		if l.Size() != goodSize {
			t.Fatalf("offset %d: size %d after rollback, want %d", off, l.Size(), goodSize)
		}
		// Crash-restart: reopen from disk and compare against acked state.
		l2, rep, err := Open(chaos.NewFS(), path, testFP)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", off, err)
		}
		if !reflect.DeepEqual(rep.Batches, acked) {
			t.Fatalf("offset %d: replay %+v, want acked %+v", off, rep.Batches, acked)
		}
		if rep.TruncatedBytes != 0 {
			t.Fatalf("offset %d: rollback left %d torn bytes for replay", off, rep.TruncatedBytes)
		}
		l2.Close()
	}

	// The surviving handle still works once the fault clears.
	seq, err := l.Append("after", testOps(1))
	if err != nil || seq != 2 {
		t.Fatalf("append after sweep: seq=%d err=%v", seq, err)
	}
}

// ENOSPC mid-append behaves like any torn write: error to the caller,
// rollback, no phantom batch on replay.
func TestAppendENOSPC(t *testing.T) {
	fsys := chaos.NewFS()
	l, path := openFresh(t, fsys)
	enospc := errors.New("no space left on device")
	fsys.FailWriteAt(5, enospc)
	if _, err := l.Append("k", testOps(2)); !errors.Is(err, enospc) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	fsys.DisarmAll()
	if _, err := l.Append("k", testOps(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rep, err := Open(snapshot.OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Batches) != 1 || rep.Batches[0].Seq != 1 {
		t.Fatalf("replay after ENOSPC = %+v", rep.Batches)
	}
}

// A failed rollback poisons the log instead of leaving a torn record where
// a later append could bury it.
func TestPoisonedAfterFailedRollback(t *testing.T) {
	fsys := chaos.NewFS()
	l, _ := openFresh(t, fsys)
	fsys.FailWriteAt(3, nil)
	// Truncate cannot be failed independently; simulate by removing the
	// file so the real truncate fails.
	if err := os.Remove(l.path); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("k", testOps(1)); err == nil {
		t.Fatal("append succeeded with armed fault and missing file")
	}
	fsys.DisarmAll()
	if _, err := l.Append("k", testOps(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on poisoned log: %v, want ErrClosed", err)
	}
}

// Flip every byte of a healthy log, one at a time: recovery must yield a
// prefix of the acked batches (CRC catches the flip) or set the log aside
// (header flips) — never a silently divergent batch.
func TestBitFlipSweep(t *testing.T) {
	l, path := openFresh(t, snapshot.OS{})
	want := []Batch{
		{Seq: 1, Key: "a", Ops: testOps(3)},
		{Seq: 2, Key: "bb", Ops: testOps(2)},
	}
	for _, b := range want {
		if _, err := l.Append(b.Key, b.Ops); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		p := filepath.Join(t.TempDir(), "flip.wal")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rep, err := Open(snapshot.OS{}, p, testFP)
		if err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
		l2.Close()
		if i < headerSize {
			if rep.SetAside == "" {
				t.Fatalf("flip %d (header): log not set aside", i)
			}
			continue
		}
		if rep.SetAside != "" {
			t.Fatalf("flip %d: body flip set the log aside", i)
		}
		if len(rep.Batches) > len(want) {
			t.Fatalf("flip %d: %d batches from a 2-batch log", i, len(rep.Batches))
		}
		if n := len(rep.Batches); n > 0 && !reflect.DeepEqual(rep.Batches, want[:n]) {
			t.Fatalf("flip %d: silent divergence: %+v", i, rep.Batches)
		}
		if len(rep.Batches) == len(want) && rep.TruncatedBytes == 0 {
			t.Fatalf("flip %d: flip at byte %d of %d went undetected", i, i, len(full))
		}
	}
}

func TestResetCompaction(t *testing.T) {
	fsys := chaos.NewFS()
	l, path := openFresh(t, fsys)
	for i := 0; i < 3; i++ {
		if _, err := l.Append("k", testOps(3)); err != nil {
			t.Fatal(err)
		}
	}
	big := l.Size()

	// Torn rename during compaction: the old log must survive untouched.
	fsys.FailRename(nil)
	if err := l.Reset(0x1111, []CheckpointEntry{{Key: "k", Seq: 3}}, 3); err == nil {
		t.Fatal("reset with torn rename succeeded")
	}
	fsys.DisarmAll()
	if l.Size() != big {
		t.Fatalf("failed reset changed size to %d", l.Size())
	}
	if seq, err := l.Append("k2", testOps(1)); err != nil || seq != 4 {
		t.Fatalf("append after failed reset: seq=%d err=%v", seq, err)
	}

	newFP := uint64(0x2222)
	want := []CheckpointEntry{{Key: "k", Seq: 3}, {Key: "k2", Seq: 4}}
	if err := l.Reset(newFP, want, 4); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= big || l.Fingerprint() != newFP {
		t.Fatalf("post-reset size=%d fp=%x", l.Size(), l.Fingerprint())
	}
	// New log: sequencing continues (an acked seq is never reissued),
	// checkpoint entries replay with their original seqs, old batches gone.
	if seq, err := l.Append("k3", testOps(1)); err != nil || seq != 5 {
		t.Fatalf("post-reset append seq=%d err=%v", seq, err)
	}
	l.Close()
	l2, rep, err := Open(snapshot.OS{}, path, newFP)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(rep.Checkpoint, want) {
		t.Fatalf("checkpoint = %v, want %v", rep.Checkpoint, want)
	}
	if len(rep.Batches) != 1 || rep.Batches[0].Key != "k3" || rep.Batches[0].Seq != 5 {
		t.Fatalf("post-reset batches = %+v", rep.Batches)
	}
	// The reopened log continues past both batch and checkpoint seqs.
	if seq, err := l2.Append("k4", testOps(1)); err != nil || seq != 6 {
		t.Fatalf("post-reopen append seq=%d err=%v", seq, err)
	}
}

// A reset onto a graph adopted at a sequence ahead of this log — a follower
// taking the primary's graph whole — continues numbering above that sequence,
// at once and after a reopen with no batch logged in between, and the marker
// that carries the position is not replayed as an idempotency key.
func TestResetContinuesAboveAdoptedSeq(t *testing.T) {
	l, path := openFresh(t, snapshot.OS{})
	if _, err := l.Append("k", testOps(1)); err != nil {
		t.Fatal(err)
	}
	keys := []CheckpointEntry{{Key: "k", Seq: 1}}
	if err := l.Reset(0x4444, keys, 7); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 7 || l.MinRetained() != 8 {
		t.Fatalf("post-reset LastSeq=%d MinRetained=%d, want 7 and 8", l.LastSeq(), l.MinRetained())
	}
	l.Close()
	l2, rep, err := Open(snapshot.OS{}, path, 0x4444)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(rep.Checkpoint, keys) {
		t.Fatalf("checkpoint = %v, want %v", rep.Checkpoint, keys)
	}
	if seq, err := l2.Append("k2", testOps(1)); err != nil || seq != 8 {
		t.Fatalf("append after adopting seq 7 and reopening: seq=%d err=%v, want 8", seq, err)
	}
	// A reset never moves numbering back: seq below the log's own position.
	if err := l2.Reset(0x5555, keys, 2); err != nil {
		t.Fatal(err)
	}
	if seq, err := l2.Append("k3", testOps(1)); err != nil || seq != 9 {
		t.Fatalf("append after a reset at a lower seq: seq=%d err=%v, want 9", seq, err)
	}
}

// A checkpoint too large for one record splits across several and replays
// back as one entry list, in order — the key table can outgrow a single
// record without making compaction unwritable.
func TestCheckpointChunking(t *testing.T) {
	key := make([]byte, maxString)
	for i := range key {
		key[i] = 'x'
	}
	// ~70 entries of ~64KiB each: > checkpointChunkBytes, so > 1 record.
	entries := make([]CheckpointEntry, 70)
	for i := range entries {
		entries[i] = CheckpointEntry{Key: string(key[:len(key)-i]), Seq: uint64(i + 1)}
	}
	payloads, err := encodeCheckpoints(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) < 2 {
		t.Fatalf("oversized checkpoint produced %d records, want >= 2", len(payloads))
	}
	var back []CheckpointEntry
	for i, p := range payloads {
		if len(p)+frameSize > checkpointChunkBytes+maxString+frameSize {
			t.Fatalf("record %d is %d bytes, over budget", i, len(p))
		}
		_, es, err := DecodePayload(p)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		back = append(back, es...)
	}
	if !reflect.DeepEqual(back, entries) {
		t.Fatal("chunked checkpoint did not round-trip")
	}

	l, path := openFresh(t, snapshot.OS{})
	if err := l.Reset(0x3333, entries, 0); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, rep, err := Open(snapshot.OS{}, path, 0x3333)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(rep.Checkpoint, entries) {
		t.Fatalf("replayed %d checkpoint entries, want %d intact", len(rep.Checkpoint), len(entries))
	}
	// nextSeq cleared the highest checkpointed ack.
	if seq, err := l2.Append("fresh", testOps(1)); err != nil || seq != uint64(len(entries))+1 {
		t.Fatalf("append after chunked replay: seq=%d err=%v", seq, err)
	}
}

// A log bound to a different base graph is preserved aside, and a fresh
// log starts — acked mutations are never silently deleted.
func TestStaleFingerprintSetAside(t *testing.T) {
	l, path := openFresh(t, snapshot.OS{})
	if _, err := l.Append("k", testOps(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, rep, err := Open(snapshot.OS{}, path, testFP+1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rep.SetAside != path+".stale" || rep.SetAsideReason == "" {
		t.Fatalf("replay = %+v", rep)
	}
	if len(rep.Batches) != 0 {
		t.Fatal("batches replayed from a foreign log")
	}
	// The stale log still holds the acked batch for manual recovery.
	_, rep2, err := Open(snapshot.OS{}, rep.SetAside, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Batches) != 1 {
		t.Fatalf("stale log lost the acked batch: %+v", rep2.Batches)
	}
}

func mustEncodeBatch(t *testing.T, b Batch) []byte {
	t.Helper()
	p, err := encodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEncodeCaps(t *testing.T) {
	if _, err := encodeBatch(Batch{Seq: 1, Key: "k"}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty batch: %v", err)
	}
	long := make([]byte, maxString+1)
	if _, err := encodeBatch(Batch{Seq: 1, Key: string(long), Ops: testOps(1)}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized key: %v", err)
	}
	if _, err := encodeBatch(Batch{Seq: 1, Key: "k", Ops: []hin.Op{{Kind: 99}}}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown op kind: %v", err)
	}
}
