// Package wal provides SilkMoth's durability layer: a sequence-numbered
// snapshot + write-ahead-log store over a small filesystem abstraction.
// Snapshots are written whole (temp file, fsync, atomic rename, directory
// sync); mutations between snapshots are appended to the paired log as
// checksummed, fsync'd records and replayed over the latest snapshot on
// startup. The FS seam exists so the crash-injection harness
// (internal/wal/failfs) can abort the store at every write and sync point
// and prove recovery correct from each resulting disk image.
package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"

	"silkmoth/internal/mmap"
)

// File is the writable-file surface the store needs. Write buffers like an
// OS file; only Sync makes the written bytes durable.
type File interface {
	io.Writer
	// Sync makes every byte written so far durable.
	Sync() error
	// Close releases the handle. Close does not imply Sync.
	Close() error
}

// FS is the flat-directory filesystem surface the store runs on. Names are
// bare file names (no separators); the implementation anchors them to its
// root. Directory-entry operations (Create, Rename, Remove, Truncate) are
// only durable after a SyncDir, mirroring POSIX semantics — the
// crash-injection FS enforces exactly that.
type FS interface {
	// Create creates or truncates name for writing.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// List returns the names of all files in the directory.
	List() ([]string, error)
	// SyncDir makes preceding directory-entry operations durable.
	SyncDir() error
}

// MapFS is an optional capability an FS may add: exposing a file as a
// read-only memory mapping. Store.RecoverData uses it when present and
// falls back to Open+ReadAll when absent (the crash-injection FS, for one,
// deliberately lacks it), so implementations are never required.
type MapFS interface {
	// Map returns name's contents as a read-only Mapping. The caller owns
	// the mapping and must Close it.
	Map(name string) (*mmap.Mapping, error)
}

// LockFS is an optional capability an FS may add: holding its directory
// for one store at a time. Open takes the lock when the FS has it, and
// Close releases it, so two stores never write one directory's pairs —
// the second Open fails instead. The production FS has it on unix; the
// crash-injection FS, which never shares a directory, does not.
type LockFS interface {
	// Lock takes the directory's lock, failing with an error wrapping
	// ErrLocked while another holder has it. Closing the returned Closer
	// releases it.
	Lock() (io.Closer, error)
}

// ErrLocked reports an Open of a directory another store holds.
var ErrLocked = errors.New("data directory is held by another open store")

// lockName is the file a LockFS locks.
const lockName = "LOCK"

// dirFS is the production FS: a real directory on the OS filesystem.
type dirFS struct {
	root string
}

// DirFS returns an FS rooted at path, creating the directory if needed.
func DirFS(path string) (FS, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	return &dirFS{root: path}, nil
}

func (d *dirFS) join(name string) string { return filepath.Join(d.root, name) }

func (d *dirFS) Create(name string) (File, error) {
	return os.OpenFile(d.join(name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (d *dirFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(d.join(name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (d *dirFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(d.join(name))
}

func (d *dirFS) Map(name string) (*mmap.Mapping, error) {
	return mmap.Open(d.join(name))
}

func (d *dirFS) Rename(oldname, newname string) error {
	return os.Rename(d.join(oldname), d.join(newname))
}

func (d *dirFS) Remove(name string) error {
	return os.Remove(d.join(name))
}

func (d *dirFS) Truncate(name string, size int64) error {
	return os.Truncate(d.join(name), size)
}

func (d *dirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (d *dirFS) SyncDir() error {
	f, err := os.Open(d.root)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
