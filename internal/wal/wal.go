// Package wal is the durability half of the mutation subsystem: a
// CRC-framed, length-prefixed append-only log of graph deltas. Every
// acknowledged mutation batch is fsynced to the log before the engine
// applies it, so warm restart is base graph + log replay — the delta
// snapshot story — and a crash at any byte leaves a log whose valid prefix
// is exactly the set of acknowledged batches.
//
// Layout (little-endian):
//
//	header  magic "HWAL" | version u32 | baseFingerprint u64 |
//	        headerCRC u32 (CRC-32/IEEE of the 16 bytes above)
//	record  payloadLen u32 | payload | payloadCRC u32 (CRC-32/IEEE of payload)
//
// A record payload begins with a kind byte: a mutation batch (sequence
// number, idempotency key, ops) or an idempotency checkpoint — (key,
// acked sequence) pairs written when compaction resets the log, so key
// dedup and the original ack sequences survive the base graph absorbing
// the batches that carried them. A checkpoint larger than one record's
// budget is split across consecutive records. Decode mirrors
// internal/snapshot's defensiveness — strict caps on every length prefix,
// allocation bounded by bytes actually present — and replay truncates the
// log at the first torn or corrupt record rather than guessing past it.
//
// The log is bound to the graph file it deltas by fingerprint. A log whose
// header names a different base is set aside (renamed, never deleted:
// it may hold acknowledged mutations that an operator swap of the graph
// file orphaned) and a fresh log is started.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"hetesim/internal/hin"
	"hetesim/internal/snapshot"
)

// ErrCorrupt marks log bytes that failed structural validation. During
// replay it is handled internally (torn-tail truncation); Append and Reset
// surface it only for programmer errors such as oversized batches.
var ErrCorrupt = errors.New("wal: corrupt")

// ErrClosed marks use of a log whose append handle is gone — closed, or
// poisoned by an append failure that could not be rolled back.
var ErrClosed = errors.New("wal: log closed")

var headerMagic = [4]byte{'H', 'W', 'A', 'L'}

// Version is the current log format version.
const Version = 1

const (
	headerSize = 20
	frameSize  = 8 // payloadLen u32 + payloadCRC u32

	maxPayload = 1 << 24 // cap on a record's length prefix (16 MiB)
	maxOps     = 1 << 20 // cap on a batch's op count
	maxKeys    = 1 << 20 // cap on one checkpoint record's entry count
	maxString  = 1<<16 - 1

	// checkpointChunkBytes bounds one checkpoint record's payload; a
	// larger entry set is split across consecutive records so no key-table
	// size can make a checkpoint unwritable.
	checkpointChunkBytes = 1 << 22
)

// Record kinds (first payload byte).
const (
	recBatch      = 0x00
	recCheckpoint = 0x01
)

// Batch is one acknowledged mutation: a monotonic sequence number, the
// client's idempotency key, and the graph deltas.
type Batch struct {
	Seq uint64
	Key string
	Ops []hin.Op
}

// CheckpointEntry carries one idempotency key and the sequence number its
// batch was originally acked with across a compaction, so a post-compaction
// duplicate answers with the real ack sequence, not a placeholder.
type CheckpointEntry struct {
	Key string
	Seq uint64
}

// Replay is what Open recovered from an existing log.
type Replay struct {
	// Batches holds every durable batch in append order. Duplicated
	// idempotency keys are preserved — dedup is the applier's job.
	Batches []Batch
	// Checkpoint holds idempotency keys (with their original ack
	// sequences) carried over from before the last compaction; they seed
	// the applier's dedup set.
	Checkpoint []CheckpointEntry
	// TruncatedBytes counts torn-tail bytes discarded from the log, for
	// loud logging. Zero on a clean log.
	TruncatedBytes int64
	// SetAside is non-empty when an unusable log (corrupt header or wrong
	// base fingerprint) was renamed out of the way; it names the preserved
	// file.
	SetAside string
	// SetAsideReason says why, when SetAside is non-empty.
	SetAsideReason string
}

// Log is an open write-ahead log positioned for appending.
type Log struct {
	fsys        snapshot.FS
	path        string
	fingerprint uint64

	f       snapshot.File // append handle; nil when closed/poisoned
	size    int64         // bytes of valid, synced log
	nextSeq uint64
	// minRetained is the smallest batch sequence still present in the log
	// file — the tail-read floor. Equal to nextSeq when the log holds no
	// batches (fresh, or every batch folded into the base by compaction).
	minRetained uint64
}

// Open binds (creating if absent) the log at path to the graph identified
// by baseFingerprint and replays it. Torn tails are truncated in place; a
// log for a different base or with an unreadable header is renamed to
// path+".stale" and a fresh log is started — see Replay for what happened.
func Open(fsys snapshot.FS, path string, baseFingerprint uint64) (*Log, *Replay, error) {
	rep := &Replay{}
	l := &Log{fsys: fsys, path: path, fingerprint: baseFingerprint, nextSeq: 1, minRetained: 1}

	data, err := readFile(fsys, path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		data = nil
	case err != nil:
		return nil, nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}

	if data != nil {
		fp, herr := ParseHeader(data)
		if herr != nil || fp != baseFingerprint {
			reason := "corrupt header"
			if herr == nil {
				reason = fmt.Sprintf("base fingerprint %016x, want %016x", fp, baseFingerprint)
			}
			aside := path + ".stale"
			if rerr := fsys.Rename(path, aside); rerr != nil {
				return nil, nil, fmt.Errorf("wal: setting aside unusable log (%s): %w", reason, rerr)
			}
			if serr := fsys.SyncDir(filepath.Dir(path)); serr != nil {
				return nil, nil, fmt.Errorf("wal: syncing directory after set-aside: %w", serr)
			}
			rep.SetAside, rep.SetAsideReason = aside, reason
			data = nil
		}
	}

	if data == nil {
		if err := l.create(); err != nil {
			return nil, nil, err
		}
		return l, rep, nil
	}

	valid := int64(headerSize)
	off := headerSize
	for off < len(data) {
		payload, n, rerr := nextRecord(data[off:])
		if rerr != nil {
			break // torn or corrupt tail: truncate from here
		}
		batch, entries, derr := DecodePayload(payload)
		if derr != nil {
			break
		}
		if batch != nil {
			if len(rep.Batches) == 0 {
				l.minRetained = batch.Seq
			}
			rep.Batches = append(rep.Batches, *batch)
			if batch.Seq >= l.nextSeq {
				l.nextSeq = batch.Seq + 1
			}
		} else {
			// Sequences are monotonic across compactions; a checkpointed
			// ack must never be reissued to a new batch. An entry without a
			// key is Reset's position marker, not an ack.
			for _, e := range entries {
				if e.Seq >= l.nextSeq {
					l.nextSeq = e.Seq + 1
				}
				if e.Key != "" {
					rep.Checkpoint = append(rep.Checkpoint, e)
				}
			}
		}
		off += n
		valid = int64(off)
	}
	if valid < int64(len(data)) {
		rep.TruncatedBytes = int64(len(data)) - valid
		if err := fsys.Truncate(path, valid); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	l.size = valid
	if len(rep.Batches) == 0 {
		l.minRetained = l.nextSeq // only checkpoints survive: tail starts at the next assignment
	}

	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s for append: %w", path, err)
	}
	l.f = f
	return l, rep, nil
}

// create writes a fresh header-only log durably at l.path.
func (l *Log) create() error {
	f, err := l.fsys.OpenAppend(l.path)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", l.path, err)
	}
	hdr := encodeHeader(l.fingerprint)
	if err := writeSync(f, hdr); err != nil {
		f.Close()
		l.fsys.Remove(l.path)
		return fmt.Errorf("wal: writing header of %s: %w", l.path, err)
	}
	if err := l.fsys.SyncDir(filepath.Dir(l.path)); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing directory of %s: %w", l.path, err)
	}
	l.f, l.size = f, int64(len(hdr))
	return nil
}

// Append logs a mutation batch durably: the record is written and fsynced
// before Append returns, so a nil error means the batch survives any crash.
// The assigned sequence number is returned. On a failed or torn write the
// log file is rolled back to its last good length; if even that fails the
// log is poisoned and every later Append returns ErrClosed.
func (l *Log) Append(key string, ops []hin.Op) (uint64, error) {
	if l.f == nil {
		return 0, ErrClosed
	}
	seq := l.nextSeq
	return seq, l.AppendBatch(Batch{Seq: seq, Key: key, Ops: ops})
}

// AppendBatch logs a batch at its already-assigned sequence number — the
// follower half of replication, where the primary assigned the sequence and
// the follower must record it verbatim so /readyz freshness and later tail
// reads line up fleet-wide. Sequences must not regress; gaps are allowed at
// this layer (the server enforces contiguity before applying). Durability
// contract matches Append.
func (l *Log) AppendBatch(b Batch) error {
	if l.f == nil {
		return ErrClosed
	}
	if b.Seq < l.nextSeq {
		return fmt.Errorf("%w: batch seq %d regresses below next seq %d", ErrCorrupt, b.Seq, l.nextSeq)
	}
	payload, err := encodeBatch(b)
	if err != nil {
		return err
	}
	return l.appendRecord(payload, func() {
		if l.minRetained == l.nextSeq && b.Seq > l.minRetained {
			// The log held no batches and this one opens a gap after a
			// compaction horizon: the retained tail starts here.
			l.minRetained = b.Seq
		}
		l.nextSeq = b.Seq + 1
	})
}

// AppendCheckpoint logs an idempotency checkpoint with the same
// durability contract as Append. Oversized entry sets are split across
// consecutive records; replay concatenates them back.
func (l *Log) AppendCheckpoint(entries []CheckpointEntry) error {
	if l.f == nil {
		return ErrClosed
	}
	payloads, err := encodeCheckpoints(entries)
	if err != nil {
		return err
	}
	for _, payload := range payloads {
		if err := l.appendRecord(payload, func() {}); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) appendRecord(payload []byte, commit func()) error {
	rec := frameRecord(payload)
	if err := writeSync(l.f, rec); err != nil {
		// Roll the file back to its last good length so the torn record
		// cannot precede a later, healthy one.
		if terr := l.fsys.Truncate(l.path, l.size); terr != nil {
			l.f.Close()
			l.f = nil
			return fmt.Errorf("wal: append failed (%v) and rollback failed, log closed: %w", err, terr)
		}
		return fmt.Errorf("wal: appending record: %w", err)
	}
	l.size += int64(len(rec))
	commit()
	return nil
}

// Reset atomically replaces the log with a fresh one bound to
// newFingerprint — the graph at sequence seq — carrying entries as checkpoint
// records (split across several when oversized): the log half of compaction
// and of adopting a whole graph, called after that graph has durably become
// the new base. The swap is temp + fsync + rename + dir sync, so a crash
// leaves either the old log (stale fingerprint, set aside at next boot after
// the base already absorbed it) or the new one. Sequence numbering continues
// above both seq and everything this log assigned — an ack sequence issued
// before the reset, here or by the primary whose graph was adopted, is never
// reused after it — and a key-less checkpoint entry records that position, so
// it also survives a reopen before the next batch.
func (l *Log) Reset(newFingerprint uint64, entries []CheckpointEntry, seq uint64) error {
	if l.f == nil {
		return ErrClosed
	}
	next := max(l.nextSeq, seq+1)
	payloads, err := encodeCheckpoints(append(entries[:len(entries):len(entries)], CheckpointEntry{Seq: next - 1}))
	if err != nil {
		return err
	}
	buf := append([]byte(nil), encodeHeader(newFingerprint)...)
	for _, payload := range payloads {
		buf = append(buf, frameRecord(payload)...)
	}

	err = snapshot.WriteAtomic(l.fsys, l.path, func(w io.Writer) error {
		_, werr := w.Write(buf)
		return werr
	})
	if err != nil {
		return fmt.Errorf("wal: replacing log: %w", err)
	}

	old := l.f
	l.f = nil
	old.Close()
	f, err := l.fsys.OpenAppend(l.path)
	if err != nil {
		return fmt.Errorf("wal: reopening %s after reset: %w", l.path, err)
	}
	l.f = f
	l.size = int64(len(buf))
	l.fingerprint = newFingerprint
	l.nextSeq = next
	l.minRetained = next // every batch below next is now folded into the base
	return nil
}

// Size reports the current durable log length in bytes — the compaction
// trigger input.
func (l *Log) Size() int64 { return l.size }

// Fingerprint reports the base-graph fingerprint the log is bound to.
func (l *Log) Fingerprint() uint64 { return l.fingerprint }

// LastSeq reports the sequence number of the most recently assigned batch,
// 0 when nothing has ever been appended. Sequences are monotonic across
// compactions and reloads, so this is the replica-freshness rank /readyz
// exposes. Callers synchronize with appenders (the server reads it under
// its write lock or caches it atomically).
func (l *Log) LastSeq() uint64 { return l.nextSeq - 1 }

// Close releases the append handle. Further appends return ErrClosed.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	return f.Close()
}

func writeSync(f snapshot.File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	return f.Sync()
}

func readFile(fsys snapshot.FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

func encodeHeader(fingerprint uint64) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, headerMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], fingerprint)
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(hdr[:16]))
	return hdr
}

// ParseHeader validates a log header and returns the base fingerprint it
// names. Exposed (with DecodePayload) as a pure function over bytes so the
// fuzzer can drive the whole decode surface without a filesystem.
func ParseHeader(b []byte) (uint64, error) {
	if len(b) < headerSize {
		return 0, fmt.Errorf("%w: %d header bytes, want %d", ErrCorrupt, len(b), headerSize)
	}
	if [4]byte(b[:4]) != headerMagic {
		return 0, fmt.Errorf("%w: header magic %q", ErrCorrupt, b[:4])
	}
	if got := crc32.ChecksumIEEE(b[:16]); got != binary.LittleEndian.Uint32(b[16:20]) {
		return 0, fmt.Errorf("%w: header CRC mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != Version {
		return 0, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, v, Version)
	}
	return binary.LittleEndian.Uint64(b[8:16]), nil
}

// nextRecord frames one record off the front of b, returning its payload
// and total framed length. Any shortfall or CRC mismatch is ErrCorrupt —
// the replay loop treats it as the torn tail.
func nextRecord(b []byte) ([]byte, int, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("%w: short length prefix", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > maxPayload {
		return nil, 0, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	}
	total := 4 + int(n) + 4
	if len(b) < total {
		return nil, 0, fmt.Errorf("%w: truncated record", ErrCorrupt)
	}
	payload := b[4 : 4+n]
	want := binary.LittleEndian.Uint32(b[4+n:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0, fmt.Errorf("%w: record CRC mismatch", ErrCorrupt)
	}
	return payload, total, nil
}

func frameRecord(payload []byte) []byte {
	rec := make([]byte, 0, len(payload)+frameSize)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
}

func encodeBatch(b Batch) ([]byte, error) {
	if len(b.Key) > maxString {
		return nil, fmt.Errorf("%w: idempotency key longer than %d bytes", ErrCorrupt, maxString)
	}
	if len(b.Ops) == 0 || len(b.Ops) > maxOps {
		return nil, fmt.Errorf("%w: batch of %d ops (want 1..%d)", ErrCorrupt, len(b.Ops), maxOps)
	}
	out := []byte{recBatch}
	out = binary.LittleEndian.AppendUint64(out, b.Seq)
	out, err := appendString(out, b.Key)
	if err != nil {
		return nil, err
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Ops)))
	for _, op := range b.Ops {
		out = append(out, byte(op.Kind))
		switch op.Kind {
		case hin.OpAddNode:
			if out, err = appendStrings(out, op.Type, op.ID); err != nil {
				return nil, err
			}
		case hin.OpUpsertEdge:
			if out, err = appendStrings(out, op.Relation, op.Src, op.Dst); err != nil {
				return nil, err
			}
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(op.Weight))
		case hin.OpDeleteEdge:
			if out, err = appendStrings(out, op.Relation, op.Src, op.Dst); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: op kind %d", ErrCorrupt, op.Kind)
		}
	}
	if len(out) > maxPayload {
		return nil, fmt.Errorf("%w: batch payload %d bytes exceeds cap %d", ErrCorrupt, len(out), maxPayload)
	}
	return out, nil
}

func encodeCheckpoint(entries []CheckpointEntry) ([]byte, error) {
	if len(entries) > maxKeys {
		return nil, fmt.Errorf("%w: checkpoint of %d entries exceeds cap %d", ErrCorrupt, len(entries), maxKeys)
	}
	out := []byte{recCheckpoint}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(entries)))
	var err error
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint64(out, e.Seq)
		if out, err = appendString(out, e.Key); err != nil {
			return nil, err
		}
	}
	if len(out) > maxPayload {
		return nil, fmt.Errorf("%w: checkpoint payload %d bytes exceeds cap %d", ErrCorrupt, len(out), maxPayload)
	}
	return out, nil
}

// encodeCheckpoints splits entries into records, each within the chunk
// budget and entry cap, and encodes them. An empty entry set encodes to a
// single empty checkpoint record, so a reset log still proves on replay
// that its key table is intentionally empty.
func encodeCheckpoints(entries []CheckpointEntry) ([][]byte, error) {
	var payloads [][]byte
	for {
		chunk := entries
		bytes := 0
		for i, e := range entries {
			if len(e.Key) > maxString {
				return nil, fmt.Errorf("%w: idempotency key of %d bytes exceeds cap %d", ErrCorrupt, len(e.Key), maxString)
			}
			bytes += 8 + 2 + len(e.Key)
			if (bytes > checkpointChunkBytes || i >= maxKeys) && i > 0 {
				chunk = entries[:i]
				break
			}
		}
		payload, err := encodeCheckpoint(chunk)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, payload)
		entries = entries[len(chunk):]
		if len(entries) == 0 {
			return payloads, nil
		}
	}
}

// DecodePayload parses a record payload into either a mutation batch or a
// checkpoint entry list (exactly one return is non-nil on success). It is
// strict: unknown kinds, over-cap counts, and trailing bytes are all
// ErrCorrupt, and allocation is bounded by the bytes actually present.
func DecodePayload(p []byte) (*Batch, []CheckpointEntry, error) {
	if len(p) == 0 || len(p) > maxPayload {
		return nil, nil, fmt.Errorf("%w: payload of %d bytes", ErrCorrupt, len(p))
	}
	kind, p := p[0], p[1:]
	switch kind {
	case recBatch:
		b, err := decodeBatch(p)
		return b, nil, err
	case recCheckpoint:
		entries, err := decodeCheckpoint(p)
		return nil, entries, err
	}
	return nil, nil, fmt.Errorf("%w: record kind %#x", ErrCorrupt, kind)
}

func decodeBatch(p []byte) (*Batch, error) {
	if len(p) < 8 {
		return nil, fmt.Errorf("%w: short batch header", ErrCorrupt)
	}
	b := &Batch{Seq: binary.LittleEndian.Uint64(p)}
	p = p[8:]
	var err error
	if b.Key, p, err = takeString(p); err != nil {
		return nil, fmt.Errorf("%w: batch key: %v", ErrCorrupt, err)
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: short op count", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if count == 0 || count > maxOps {
		return nil, fmt.Errorf("%w: implausible op count %d", ErrCorrupt, count)
	}
	// Each op is at least 3 bytes; reject counts the payload cannot hold
	// before allocating for them.
	if uint64(count)*3 > uint64(len(p)) {
		return nil, fmt.Errorf("%w: %d ops cannot fit in %d bytes", ErrCorrupt, count, len(p))
	}
	b.Ops = make([]hin.Op, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return nil, fmt.Errorf("%w: short op %d", ErrCorrupt, i)
		}
		op := hin.Op{Kind: hin.OpKind(p[0])}
		p = p[1:]
		switch op.Kind {
		case hin.OpAddNode:
			if op.Type, p, err = takeString(p); err == nil {
				op.ID, p, err = takeString(p)
			}
		case hin.OpUpsertEdge:
			if op.Relation, op.Src, op.Dst, p, err = takeStrings3(p); err == nil {
				if len(p) < 8 {
					err = errors.New("short weight")
				} else {
					op.Weight = math.Float64frombits(binary.LittleEndian.Uint64(p))
					p = p[8:]
				}
			}
		case hin.OpDeleteEdge:
			op.Relation, op.Src, op.Dst, p, err = takeStrings3(p)
		default:
			err = fmt.Errorf("unknown kind %d", op.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: op %d: %v", ErrCorrupt, i, err)
		}
		b.Ops = append(b.Ops, op)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrCorrupt, len(p))
	}
	return b, nil
}

func decodeCheckpoint(p []byte) ([]CheckpointEntry, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: short checkpoint header", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if count > maxKeys {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrCorrupt, count)
	}
	// Each entry is at least 10 bytes (seq u64 + key length prefix).
	if uint64(count)*10 > uint64(len(p)) {
		return nil, fmt.Errorf("%w: %d entries cannot fit in %d bytes", ErrCorrupt, count, len(p))
	}
	entries := make([]CheckpointEntry, 0, count)
	var err error
	for i := uint32(0); i < count; i++ {
		if len(p) < 8 {
			return nil, fmt.Errorf("%w: short entry %d", ErrCorrupt, i)
		}
		e := CheckpointEntry{Seq: binary.LittleEndian.Uint64(p)}
		p = p[8:]
		if e.Key, p, err = takeString(p); err != nil {
			return nil, fmt.Errorf("%w: entry %d key: %v", ErrCorrupt, i, err)
		}
		entries = append(entries, e)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after checkpoint", ErrCorrupt, len(p))
	}
	return entries, nil
}

func appendString(out []byte, s string) ([]byte, error) {
	if len(s) > maxString {
		return nil, fmt.Errorf("%w: string of %d bytes exceeds cap %d", ErrCorrupt, len(s), maxString)
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...), nil
}

func appendStrings(out []byte, ss ...string) ([]byte, error) {
	var err error
	for _, s := range ss {
		if out, err = appendString(out, s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func takeString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, errors.New("short string length")
	}
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < n {
		return "", nil, errors.New("short string")
	}
	return string(p[:n]), p[n:], nil
}

func takeStrings3(p []byte) (a, b, c string, rest []byte, err error) {
	if a, p, err = takeString(p); err != nil {
		return
	}
	if b, p, err = takeString(p); err != nil {
		return
	}
	c, rest, err = takeString(p)
	return
}
