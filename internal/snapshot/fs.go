package snapshot

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the narrow filesystem surface Save and Load need. Production code
// uses OS (the real filesystem); the chaos package provides an
// implementation that injects write failures, torn renames, and failed
// syncs at chosen points, which is how the recovery test matrix proves the
// crash-safety of the save protocol.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Open(name string) (File, error)
	// OpenAppend opens name for append-only writing, creating it empty when
	// absent — the write-ahead log's durability primitive.
	OpenAppend(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// Truncate shortens the file at name to size bytes, discarding a torn
	// tail detected during log replay.
	Truncate(name string, size int64) error
	// SyncDir flushes the directory entry metadata, making a completed
	// rename durable.
	SyncDir(dir string) error
}

// File is the subset of *os.File the save/load protocol uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Name() string
}

// OS is the real-filesystem FS.
type OS struct{}

func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (OS) Open(name string) (File, error) { return os.Open(name) }

func (OS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Sync on a directory is unsupported on some platforms; the rename
	// itself is still atomic there, so only real sync failures count.
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Save writes the snapshot crash-safely to path via fsys; see WriteAtomic.
func Save(fsys FS, path string, s *Snapshot) error {
	return WriteAtomic(fsys, path, func(w io.Writer) error { return Write(w, s) })
}

// WriteAtomic replaces the file at path crash-safely via fsys: write into a
// temp file in the destination directory, fsync it, close, atomically
// rename over path, and fsync the directory. A failure at any step removes
// the temp file and leaves whatever was previously at path untouched, so a
// crashed or failed write never costs the reader its last good file —
// the protocol behind snapshots and the server's compacted base graph.
func WriteAtomic(fsys FS, path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			fsys.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: writing %s: %w", tmp, err)
	}
	if err = f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: syncing %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmp, err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: renaming into place: %w", err)
	}
	if err = fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("snapshot: syncing directory: %w", err)
	}
	return nil
}

// Load reads and validates the snapshot at path via fsys. It returns
// os.ErrNotExist (wrapped) when no snapshot exists — the ordinary cold
// start — and ErrCorrupt / ErrMismatch wrapped errors for files that must
// not be served.
func Load(fsys FS, path string) (*Snapshot, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return s, nil
}
