//go:build unix

package wal

import (
	"errors"
	"strings"
	"testing"
)

// TestOpenLocksDirectory: one store holds a directory. A second Open fails
// with ErrLocked and the path until the first store closes; an FS without
// the capability is never locked.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	fsys, err := DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fsys); !errors.Is(err, ErrLocked) || !strings.Contains(err.Error(), dir) {
		t.Fatalf("second Open = %v, want ErrLocked naming %s", err, dir)
	}
	other, err := Open(crashedOwnerFS{fsys})
	if err != nil {
		t.Fatalf("Open without the lock capability: %v", err)
	}
	other.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(fsys)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	st.Close()
}
