package wal

import (
	"errors"
	"fmt"
	"io"
	"testing"
)

// openDir opens a store over a real temp directory.
func openDir(t *testing.T, dir string) *Store {
	t.Helper()
	fsys, err := DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(fsys)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// writeString is a snapshot writer that emits a fixed payload.
func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// recoverImage runs RecoverData with a loader that accepts every image,
// captures the winner into dst, and releases its mapping.
func recoverImage(t *testing.T, st *Store, dst *string) (bool, error) {
	t.Helper()
	loaded, m, err := st.RecoverData(func(data []byte) error {
		*dst = string(data)
		return nil
	})
	if m != nil {
		if cerr := m.Close(); cerr != nil {
			t.Fatal(cerr)
		}
	}
	return loaded, err
}

func TestStoreEmptyRecovery(t *testing.T) {
	st := openDir(t, t.TempDir())
	loaded, m, err := st.RecoverData(func([]byte) error { t.Fatal("load on empty store"); return nil })
	if err != nil || loaded || m != nil {
		t.Fatalf("RecoverData on empty store = (%v, %v, %v), want (false, nil, nil)", loaded, m, err)
	}
	n, torn, err := st.ReplayWAL(func(*Record) error { t.Fatal("apply on empty store"); return nil })
	if n != 0 || torn || err != nil {
		t.Fatalf("ReplayWAL on empty store = (%d, %v, %v)", n, torn, err)
	}
	if err := st.Begin(); err == nil {
		t.Fatal("Begin on an empty store should fail: there is no pair to append to")
	}
}

func TestStoreSnapshotAppendRecover(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	if err := st.WriteSnapshot(writeString("image-1")); err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for i := range recs {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Appended(); got != int64(len(recs)) {
		t.Fatalf("Appended = %d, want %d", got, len(recs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the snapshot loads and the log replays in order.
	st2 := openDir(t, dir)
	var img string
	loaded, err := recoverImage(t, st2, &img)
	if err != nil || !loaded {
		t.Fatalf("RecoverData = (%v, %v), want (true, nil)", loaded, err)
	}
	if img != "image-1" {
		t.Fatalf("recovered image %q", img)
	}
	var ids []int
	n, torn, err := st2.ReplayWAL(func(r *Record) error { ids = append(ids, int(r.Op)); return nil })
	if err != nil || torn {
		t.Fatalf("ReplayWAL = (%d, %v, %v)", n, torn, err)
	}
	if n != len(recs) {
		t.Fatalf("replayed %d records, want %d", n, len(recs))
	}
	// Appends continue on the recovered log.
	if err := st2.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Append(&Record{Op: OpDelete, ID: 9}); err != nil {
		t.Fatal(err)
	}

	st3 := openDir(t, dir)
	if _, err := recoverImage(t, st3, &img); err != nil {
		t.Fatal(err)
	}
	n, _, err = st3.ReplayWAL(func(*Record) error { return nil })
	if err != nil || n != len(recs)+1 {
		t.Fatalf("after continued append: replayed %d (err %v), want %d", n, err, len(recs)+1)
	}
}

// A new snapshot rotates the pair: the old log's records are subsumed and
// replay after recovery sees only post-rotation appends.
func TestStoreRotation(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	if err := st.WriteSnapshot(writeString("v1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(&Record{Op: OpDelete, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(writeString("v2")); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshots(); got != 2 {
		t.Fatalf("Snapshots = %d, want 2", got)
	}
	if err := st.Append(&Record{Op: OpDelete, ID: 2}); err != nil {
		t.Fatal(err)
	}

	st2 := openDir(t, dir)
	var img string
	if loaded, err := recoverImage(t, st2, &img); err != nil || !loaded {
		t.Fatalf("RecoverData = (%v, %v)", loaded, err)
	}
	if img != "v2" {
		t.Fatalf("recovered %q, want the newest snapshot", img)
	}
	var ids []int
	n, torn, err := st2.ReplayWAL(func(r *Record) error { ids = append(ids, r.ID); return nil })
	if err != nil || torn || n != 1 || ids[0] != 2 {
		t.Fatalf("replay after rotation = (%d, %v, %v), ids %v; want just the post-rotation record", n, torn, err, ids)
	}
}

// A torn tail (truncated final record) is discarded, reported, and
// physically truncated so the next generation of appends extends a valid
// log.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	if err := st.WriteSnapshot(writeString("img")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(&Record{Op: OpDelete, ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Tear the last record: chop bytes off the log's end.
	fsys, _ := DirFS(dir)
	names, err := fsys.List()
	if err != nil {
		t.Fatal(err)
	}
	var logFile string
	for _, n := range names {
		if _, ok := parseSeq(n, "wal-", ".log"); ok {
			logFile = n
		}
	}
	rc, err := fsys.Open(logFile)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := io.ReadAll(rc)
	rc.Close()
	if err := fsys.Truncate(logFile, int64(len(all)-3)); err != nil {
		t.Fatal(err)
	}

	st2 := openDir(t, dir)
	var img string
	if _, err := recoverImage(t, st2, &img); err != nil {
		t.Fatal(err)
	}
	n, torn, err := st2.ReplayWAL(func(*Record) error { return nil })
	if err != nil || !torn || n != 2 {
		t.Fatalf("torn replay = (%d, %v, %v), want (2, true, nil)", n, torn, err)
	}
	// The torn suffix is gone: appends now extend a valid log.
	if err := st2.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Append(&Record{Op: OpDelete, ID: 99}); err != nil {
		t.Fatal(err)
	}
	st3 := openDir(t, dir)
	if _, err := recoverImage(t, st3, &img); err != nil {
		t.Fatal(err)
	}
	var ids []int
	n, torn, err = st3.ReplayWAL(func(r *Record) error { ids = append(ids, r.ID); return nil })
	if err != nil || torn || n != 3 {
		t.Fatalf("replay after truncation+append = (%d, %v, %v) ids %v", n, torn, err, ids)
	}
	if ids[2] != 99 {
		t.Fatalf("ids = %v, want the new record after the surviving prefix", ids)
	}
}

// Mid-log corruption — a record damaged before the tail — must abort
// replay with a hard error, never silently skip.
func TestStoreMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	if err := st.WriteSnapshot(writeString("img")); err != nil {
		t.Fatal(err)
	}
	// An invalid op with a valid checksum, followed by a valid record.
	frame := AppendRecord(nil, &Record{Op: Op(77), ID: 1})
	frame = AppendRecord(frame, &Record{Op: OpDelete, ID: 2})
	f, err := st.fsys.OpenAppend(logName(st.Seq()))
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame)
	f.Sync()
	f.Close()

	st2 := openDir(t, dir)
	var img string
	if _, err := recoverImage(t, st2, &img); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st2.ReplayWAL(func(*Record) error { return nil }); err == nil {
		t.Fatal("mid-log corruption should abort replay with an error")
	}
}

// An apply error aborts replay and reports which record failed.
func TestStoreApplyError(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	if err := st.WriteSnapshot(writeString("img")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Append(&Record{Op: OpDelete, ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	st2 := openDir(t, dir)
	var img string
	if _, err := recoverImage(t, st2, &img); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	n, _, err := st2.ReplayWAL(func(r *Record) error {
		if r.ID == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("apply error: replayed %d, err %v", n, err)
	}
}

// Recovery falls back to an older snapshot when the newest fails to load,
// and errors only when none loads — here over an FS without the MapFS
// capability, so the candidates travel the read-whole path
// (TestStoreRecoverDataFallback covers the mapped one).
func TestStoreRecoverFallback(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	if err := st.WriteSnapshot(writeString("old")); err != nil {
		t.Fatal(err)
	}
	// Plant a newer, unloadable snapshot alongside (rotation normally
	// removes the old pair; writing the file directly keeps both).
	fsys, _ := DirFS(dir)
	f, err := fsys.Create(snapName(st.Seq() + 1))
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "garbage")
	f.Sync()
	f.Close()
	fsys.SyncDir()

	unmapped := struct{ FS }{fsys} // embedding the interface hides dirFS.Map
	st2, err := Open(unmapped)
	if err != nil {
		t.Fatal(err)
	}
	loaded, m, err := st2.RecoverData(func(data []byte) error {
		if string(data) != "old" {
			return fmt.Errorf("unloadable image %q", data)
		}
		return nil
	})
	if err != nil || !loaded || string(m.Data()) != "old" || m.Mapped() {
		t.Fatalf("fallback RecoverData = (%v, %v), mapped %v", loaded, err, m != nil && m.Mapped())
	}
	if st2.Seq() != st.Seq() {
		t.Fatalf("Seq = %d, want the older snapshot's %d", st2.Seq(), st.Seq())
	}

	st3, err := Open(unmapped)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st3.RecoverData(func([]byte) error { return errors.New("nope") }); err == nil {
		t.Fatal("RecoverData with no loadable snapshot should error")
	}
}

// After Close the store refuses writes; a second Close is a no-op.
func TestStoreClosed(t *testing.T) {
	st := openDir(t, t.TempDir())
	if err := st.WriteSnapshot(writeString("img")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(&Record{Op: OpDelete, ID: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := st.WriteSnapshot(writeString("img2")); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteSnapshot after Close = %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}
