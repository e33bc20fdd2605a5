package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"syscall"
	"testing"
)

// RecoverData hands the loader the snapshot as bytes — memory-mapped over
// dirFS — and transfers mapping ownership on success.
func TestStoreRecoverData(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	if err := st.WriteSnapshot(writeString("image-bytes")); err != nil {
		t.Fatal(err)
	}
	wantSeq := st.Seq()
	st.Close()

	st2 := openDir(t, dir)
	var img string
	loaded, m, err := st2.RecoverData(func(data []byte) error {
		img = string(data)
		return nil
	})
	if err != nil || !loaded {
		t.Fatalf("RecoverData = (%v, %v), want (true, nil)", loaded, err)
	}
	if img != "image-bytes" {
		t.Fatalf("recovered image %q", img)
	}
	if m == nil {
		t.Fatal("no mapping returned")
	}
	if runtime.GOOS == "linux" && !m.Mapped() {
		t.Error("dirFS recovery should produce a real mapping on linux")
	}
	if string(m.Data()) != "image-bytes" {
		t.Error("mapping data does not back the loaded image")
	}
	if st2.Seq() != wantSeq {
		t.Fatalf("Seq = %d, want %d", st2.Seq(), wantSeq)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRecoverDataEmpty(t *testing.T) {
	st := openDir(t, t.TempDir())
	loaded, m, err := st.RecoverData(func([]byte) error {
		t.Fatal("load on empty store")
		return nil
	})
	if loaded || m != nil || err != nil {
		t.Fatalf("empty store = (%v, %v, %v)", loaded, m, err)
	}
}

// A newer unloadable snapshot falls back to the older one, and the failed
// candidate's mapping is closed internally.
func TestStoreRecoverDataFallback(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	if err := st.WriteSnapshot(writeString("old")); err != nil {
		t.Fatal(err)
	}
	fsys, _ := DirFS(dir)
	f, err := fsys.Create(snapName(st.Seq() + 1))
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "garbage")
	f.Sync()
	f.Close()
	fsys.SyncDir()

	st2 := openDir(t, dir)
	loaded, m, err := st2.RecoverData(func(data []byte) error {
		if string(data) != "old" {
			return fmt.Errorf("unloadable image %q", data)
		}
		return nil
	})
	if err != nil || !loaded || string(m.Data()) != "old" {
		t.Fatalf("fallback RecoverData = (%v, %v)", loaded, err)
	}
	m.Close()

	st3 := openDir(t, dir)
	if _, _, err := st3.RecoverData(func([]byte) error { return errors.New("nope") }); err == nil {
		t.Fatal("RecoverData with no loadable snapshot should error")
	}
}

// eioOpenFS fails every Open of one file with an I/O error; embedding the
// interface hides dirFS.Map, so snapshots are opened, not mapped.
type eioOpenFS struct {
	FS
	name string
}

func (f eioOpenFS) Open(name string) (io.ReadCloser, error) {
	if name == f.name {
		return nil, &fs.PathError{Op: "open", Path: name, Err: syscall.EIO}
	}
	return f.FS.Open(name)
}

// An I/O error opening the newest snapshot fails recovery. Falling back to
// the older pair — which rotation removes only best-effort — would open the
// engine on a stale image and drop every acknowledged record of the newer
// log.
func TestStoreRecoverDataOpenErrorFails(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	if err := st.WriteSnapshot(writeString("old")); err != nil {
		t.Fatal(err)
	}
	fsys, _ := DirFS(dir)
	newest := snapName(st.Seq() + 1)
	f, err := fsys.Create(newest)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "new")
	f.Sync()
	f.Close()
	fsys.SyncDir()

	st2, err := Open(eioOpenFS{FS: fsys, name: newest})
	if err != nil {
		t.Fatal(err)
	}
	loaded, m, err := st2.RecoverData(func(data []byte) error {
		t.Errorf("recovery loaded %q past an unreadable newer snapshot", data)
		return nil
	})
	if m != nil {
		m.Close()
	}
	if loaded || !errors.Is(err, syscall.EIO) {
		t.Fatalf("RecoverData = (%v, %v), want the newest snapshot's EIO", loaded, err)
	}
}
