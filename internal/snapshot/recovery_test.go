// The recovery test matrix: every injected failure of the save protocol —
// kill mid-write at any byte, ENOSPC, failed fsync, torn rename, failed
// temp creation, at-rest corruption — must leave the previous snapshot
// loadable (or, with no previous snapshot, a clean cold start), and no
// failure may ever yield a snapshot that passes validation with wrong
// contents. The package under test is exercised from outside (package
// snapshot_test) so the matrix can drive it through the chaos FS.
package snapshot_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"hetesim/internal/chaos"
	"hetesim/internal/snapshot"
)

func matrixSnapshot(tag byte) *snapshot.Snapshot {
	return &snapshot.Snapshot{
		Fingerprint: 0x1111111111111111 * uint64(tag),
		Sections: []snapshot.Section{
			{Name: "meta", Data: bytes.Repeat([]byte{tag}, 64)},
			{Name: "chain:C:k", Data: bytes.Repeat([]byte{tag, ^tag}, 200)},
			// A section this build skips on load (older builds wrote
			// embed: sections), so every kill/corruption sweep below also
			// walks offsets inside a payload no decoder looks at.
			{Name: "embed:E:4:C:k", Data: bytes.Repeat([]byte{tag, ^tag, 0x3f}, 120)},
		},
	}
}

// mustLoadTag asserts the snapshot at path is intact and carries tag's
// fingerprint — i.e. the failure left the previous generation untouched.
func mustLoadTag(t *testing.T, path string, tag byte) {
	t.Helper()
	s, err := snapshot.Load(snapshot.OS{}, path)
	if err != nil {
		t.Fatalf("previous snapshot unloadable after injected failure: %v", err)
	}
	if want := 0x1111111111111111 * uint64(tag); s.Fingerprint != want {
		t.Fatalf("snapshot fingerprint %x, want generation %x", s.Fingerprint, want)
	}
}

// snapshotSize measures the serialized size of a snapshot, so write-failure
// sweeps can cover every byte offset of the save.
func snapshotSize(t *testing.T, s *snapshot.Snapshot) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return int64(buf.Len())
}

// TestKillMidWriteEveryOffset kills the save at every byte offset of the
// file being written. Whatever the offset, the save must fail and the
// previous snapshot must remain loadable.
func TestKillMidWriteEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	v1, v2 := matrixSnapshot(1), matrixSnapshot(2)
	if err := snapshot.Save(snapshot.OS{}, path, v1); err != nil {
		t.Fatal(err)
	}
	size := snapshotSize(t, v2)
	fs := chaos.NewFS()
	for off := int64(0); off < size; off++ {
		fs.FailWriteAt(off, nil)
		if err := snapshot.Save(fs, path, v2); err == nil {
			t.Fatalf("save survived write failure at byte %d", off)
		}
		mustLoadTag(t, path, 1)
	}
	// Disarmed, the same save goes through and v2 becomes current.
	fs.DisarmAll()
	if err := snapshot.Save(fs, path, v2); err != nil {
		t.Fatal(err)
	}
	mustLoadTag(t, path, 2)
}

// TestENOSPC models the disk filling up mid-save with the real errno.
func TestENOSPC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := snapshot.Save(snapshot.OS{}, path, matrixSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	fs := chaos.NewFS()
	fs.FailWriteAt(100, syscall.ENOSPC)
	err := snapshot.Save(fs, path, matrixSnapshot(2))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("save error = %v, want ENOSPC", err)
	}
	mustLoadTag(t, path, 1)
}

// TestTornRename fails the publish step: the new file is fully written but
// never renamed into place. The previous snapshot stays current and no temp
// litter is left behind.
func TestTornRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := snapshot.Save(snapshot.OS{}, path, matrixSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	fs := chaos.NewFS()
	fs.FailRename(nil)
	if err := snapshot.Save(fs, path, matrixSnapshot(2)); err == nil {
		t.Fatal("save survived a failed rename")
	}
	mustLoadTag(t, path, 1)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed rename left %d directory entries, want 1", len(entries))
	}
}

// TestFailedSyncAndCreate covers the remaining protocol steps: a failed
// fsync (data not durable — must not publish) and a failed temp creation.
func TestFailedSyncAndCreate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := snapshot.Save(snapshot.OS{}, path, matrixSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	fs := chaos.NewFS()
	fs.FailSync(nil)
	if err := snapshot.Save(fs, path, matrixSnapshot(2)); err == nil {
		t.Fatal("save survived a failed fsync")
	}
	mustLoadTag(t, path, 1)

	fs.DisarmAll()
	fs.FailCreate(nil)
	if err := snapshot.Save(fs, path, matrixSnapshot(2)); err == nil {
		t.Fatal("save survived failed temp creation")
	}
	mustLoadTag(t, path, 1)
}

// TestAtRestCorruptionSweep flips bits at seeded offsets of the stored file
// (plus truncations) and proves Load rejects every mutation — bit rot is
// detected, never served. Short mode samples fewer offsets.
func TestAtRestCorruptionSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := snapshot.Save(snapshot.OS{}, path, matrixSnapshot(3)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	if testing.Short() {
		n = 16
	}
	for _, off := range chaos.Offsets(42, int64(len(raw)), n) {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.Load(snapshot.OS{}, path); err == nil {
			t.Fatalf("bit flip at offset %d of the stored file was accepted", off)
		}
	}
	for _, off := range chaos.Offsets(43, int64(len(raw)), n) {
		if err := os.WriteFile(path, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.Load(snapshot.OS{}, path); err == nil {
			t.Fatalf("truncation to %d bytes was accepted", off)
		}
	}
}

// TestFirstSaveFailureMeansCleanColdStart: with no previous snapshot, a
// failed first save must leave nothing at the path — the next boot sees
// not-exist (cold start), not a corrupt file.
func TestFirstSaveFailureMeansCleanColdStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	fs := chaos.NewFS()
	fs.FailWriteAt(37, nil)
	if err := snapshot.Save(fs, path, matrixSnapshot(1)); err == nil {
		t.Fatal("save survived write failure")
	}
	if _, err := snapshot.Load(snapshot.OS{}, path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("after failed first save, Load err = %v, want ErrNotExist", err)
	}
}

// TestReaderFaultWrappers drives Load through failing and short readers to
// pin decoder behavior on I/O errors and silent truncation.
func TestReaderFaultWrappers(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, matrixSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, off := range chaos.Offsets(7, int64(len(raw)), 24) {
		if _, err := snapshot.Read(chaos.FailReader(bytes.NewReader(raw), off, nil)); err == nil {
			t.Fatalf("read survived I/O failure at byte %d", off)
		}
		if _, err := snapshot.Read(chaos.ShortReader(bytes.NewReader(raw), off)); err == nil {
			t.Fatalf("read survived silent truncation at byte %d", off)
		}
		if _, err := snapshot.Read(chaos.CorruptReader(bytes.NewReader(raw), off, 0x40)); err == nil {
			t.Fatalf("read survived in-flight bit flip at byte %d", off)
		}
	}
}
