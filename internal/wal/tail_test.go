package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"hetesim/internal/snapshot"
)

func TestTailSinceBasics(t *testing.T) {
	l, _ := openFresh(t, snapshot.OS{})
	defer l.Close()

	if got, err := l.TailSince(1, 100); err != nil || len(got) != 0 {
		t.Fatalf("empty-log tail = %v, %v; want empty, nil", got, err)
	}
	if l.MinRetained() != 1 {
		t.Fatalf("fresh MinRetained = %d, want 1", l.MinRetained())
	}

	// Reset writes checkpoint records ahead of the batches; a tail read
	// must skip them.
	if err := l.Reset(testFP, []CheckpointEntry{{Key: "k0", Seq: 0}}, 0); err != nil {
		t.Fatal(err)
	}
	want := []Batch{
		{Seq: 1, Key: "k1", Ops: testOps(3)},
		{Seq: 2, Key: "k2", Ops: testOps(1)},
		{Seq: 3, Key: "k3", Ops: testOps(2)},
	}
	for _, b := range want {
		if _, err := l.Append(b.Key, b.Ops); err != nil {
			t.Fatal(err)
		}
	}

	got, err := l.TailSince(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TailSince(0) = %+v, want %+v", got, want)
	}
	if got, err = l.TailSince(2, 100); err != nil || !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("TailSince(2) = %+v, %v; want %+v", got, err, want[1:])
	}
	if got, err = l.TailSince(1, 2); err != nil || !reflect.DeepEqual(got, want[:2]) {
		t.Fatalf("TailSince(1, max 2) = %+v, %v; want %+v", got, err, want[:2])
	}
	if got, err = l.TailSince(4, 100); err != nil || len(got) != 0 {
		t.Fatalf("past-end tail = %v, %v; want empty, nil", got, err)
	}
}

func TestTailSinceCompacted(t *testing.T) {
	l, _ := openFresh(t, snapshot.OS{})
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append("", testOps(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction folds seqs 1..3 into the base; the floor moves to 4.
	if err := l.Reset(testFP+1, []CheckpointEntry{{Key: "k", Seq: 3}}, 3); err != nil {
		t.Fatal(err)
	}
	if l.MinRetained() != 4 {
		t.Fatalf("post-reset MinRetained = %d, want 4", l.MinRetained())
	}
	if _, err := l.TailSince(3, 100); !errors.Is(err, ErrCompacted) {
		t.Fatalf("TailSince(3) after compaction = %v, want ErrCompacted", err)
	}
	if got, err := l.TailSince(4, 100); err != nil || len(got) != 0 {
		t.Fatalf("TailSince(4) = %v, %v; want empty, nil", got, err)
	}
	// New appends continue the sequence and are tailable again.
	seq, err := l.Append("k4", testOps(2))
	if err != nil || seq != 4 {
		t.Fatalf("post-reset Append = %d, %v; want 4, nil", seq, err)
	}
	got, err := l.TailSince(4, 100)
	if err != nil || len(got) != 1 || got[0].Seq != 4 {
		t.Fatalf("TailSince(4) = %+v, %v; want one batch at seq 4", got, err)
	}
}

func TestTailSinceSurvivesReopen(t *testing.T) {
	l, path := openFresh(t, snapshot.OS{})
	for i := 0; i < 2; i++ {
		if _, err := l.Append("", testOps(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(testFP, []CheckpointEntry{{Key: "k", Seq: 2}}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("k3", testOps(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, _, err := Open(snapshot.OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.MinRetained() != 3 {
		t.Fatalf("reopened MinRetained = %d, want 3", l2.MinRetained())
	}
	if _, err := l2.TailSince(2, 100); !errors.Is(err, ErrCompacted) {
		t.Fatalf("reopened TailSince(2) = %v, want ErrCompacted", err)
	}
	got, err := l2.TailSince(3, 100)
	if err != nil || len(got) != 1 || got[0].Seq != 3 || got[0].Key != "k3" {
		t.Fatalf("reopened TailSince(3) = %+v, %v", got, err)
	}
}

func TestAppendBatchAssignedSeq(t *testing.T) {
	l, path := openFresh(t, snapshot.OS{})
	// Follower records primary-assigned sequences verbatim.
	for _, seq := range []uint64{1, 2, 3} {
		if err := l.AppendBatch(Batch{Seq: seq, Key: "", Ops: testOps(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", l.LastSeq())
	}
	// Regression is a programmer error, not a silent overwrite.
	if err := l.AppendBatch(Batch{Seq: 2, Ops: testOps(1)}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("regressing AppendBatch = %v, want ErrCorrupt", err)
	}
	l.Close()

	l2, rep, err := Open(snapshot.OS{}, path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rep.Batches) != 3 || l2.LastSeq() != 3 {
		t.Fatalf("replay = %d batches, LastSeq %d; want 3, 3", len(rep.Batches), l2.LastSeq())
	}
}

func TestStreamRoundTrip(t *testing.T) {
	in := Stream{
		Fingerprint: testFP,
		Head:        7,
		Batches: []Batch{
			{Seq: 2, Key: "k2", Ops: testOps(3)},
			{Seq: 5, Key: "", Ops: testOps(1)},
			{Seq: 7, Key: "k7", Ops: testOps(2)},
		},
	}
	b, err := EncodeStream(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeStream(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*out, in) {
		t.Fatalf("round trip = %+v, want %+v", *out, in)
	}
	again, err := EncodeStream(*out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, b) {
		t.Fatal("re-encode is not canonical")
	}

	// Empty pulls (caught-up follower) are valid streams.
	b, err = EncodeStream(Stream{Fingerprint: testFP, Head: 7})
	if err != nil {
		t.Fatal(err)
	}
	out, err = DecodeStream(b)
	if err != nil || out.Head != 7 || out.Fingerprint != testFP || len(out.Batches) != 0 {
		t.Fatalf("empty stream round trip = %+v, %v", out, err)
	}
}

func TestStreamDecodeRejects(t *testing.T) {
	good, err := EncodeStream(Stream{
		Fingerprint: testFP,
		Head:        3,
		Batches:     []Batch{{Seq: 1, Ops: testOps(1)}, {Seq: 3, Ops: testOps(2)}},
	})
	if err != nil {
		t.Fatal(err)
	}

	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x40
		return b
	}
	cases := map[string][]byte{
		"short header":    good[:streamHeaderSize-1],
		"bad magic":       flip(0),
		"header crc":      flip(8),
		"truncated body":  good[:len(good)-3],
		"body crc":        flip(len(good) - 2),
		"record bit flip": flip(streamHeaderSize + 6),
	}
	for name, b := range cases {
		if _, err := DecodeStream(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeStream = %v, want ErrCorrupt", name, err)
		}
	}

	// Encoder refuses invariant-breaking streams.
	if _, err := EncodeStream(Stream{Head: 2, Batches: []Batch{{Seq: 3, Ops: testOps(1)}}}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("seq past head: EncodeStream = %v, want ErrCorrupt", err)
	}
	if _, err := EncodeStream(Stream{Head: 5, Batches: []Batch{{Seq: 3, Ops: testOps(1)}, {Seq: 3, Ops: testOps(1)}}}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("non-ascending: EncodeStream = %v, want ErrCorrupt", err)
	}
}
