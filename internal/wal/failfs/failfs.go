// Package failfs is an in-memory implementation of wal.FS that models
// power loss precisely enough to prove recovery correct. It distinguishes
// three durability layers a real OS has:
//
//   - file content that has been fsync'd (survives any crash),
//   - file content written but not yet synced (an arbitrary prefix may
//     survive — the torn tail),
//   - directory entries created/renamed/removed but not yet followed by a
//     directory sync (each pending entry op may or may not have reached
//     disk, in order).
//
// Every mutating filesystem operation — write, file sync, create, rename,
// remove, directory sync — is one numbered injection point. Arming FailAt(k)
// makes the k-th operation crash the filesystem: the op applies partially
// (a deterministic prefix), every later operation fails with ErrCrashed,
// and Disk() then yields the post-crash durable image for recovery to run
// against. Enumerating k over a deterministic workload therefore covers
// every write/sync point the store has.
package failfs

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"sort"
	"sync"

	"silkmoth/internal/wal"
)

// ErrCrashed is returned by every operation after the injected crash: the
// process owning the filesystem is dead.
var ErrCrashed = errors.New("failfs: crashed")

type memFile struct {
	synced   []byte // durable content
	unsynced []byte // written, not yet fsync'd
}

// nsOp is one directory-entry operation pending a directory sync.
type nsOp struct {
	kind byte // 'c' create, 'r' rename, 'd' remove
	name string
	to   string   // rename target
	file *memFile // create: the (possibly truncating) new object
}

// FS is the crash-injecting filesystem. Use New; the zero value is not
// ready.
type FS struct {
	mu      sync.Mutex
	live    map[string]*memFile // namespace as the running process sees it
	durable map[string]*memFile // namespace as of the last directory sync
	pending []nsOp              // entry ops since the last directory sync
	ops     int
	failAt  int // crash at op index failAt; -1 disables injection
	crashed bool
	rng     uint64 // deterministic partial-effect source, seeded by failAt
}

var _ wal.FS = (*FS)(nil)

// New returns an empty filesystem with injection disabled.
func New() *FS {
	return &FS{
		live:    map[string]*memFile{},
		durable: map[string]*memFile{},
		failAt:  -1,
	}
}

// FailAt arms the filesystem to crash at operation index k (0-based,
// counting every mutating operation).
func (f *FS) FailAt(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt = k
	f.rng = uint64(k)*0x9e3779b97f4a7c15 + 1
}

// Ops returns the number of mutating operations performed so far.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the injected crash has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Crash forces the crash now, as if power failed between operations.
// No-op if already crashed.
func (f *FS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.crashed {
		f.crash()
	}
}

// rand returns the next deterministic pseudo-random value (xorshift64).
func (f *FS) rand() uint64 {
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	return f.rng
}

// crash collapses the filesystem to a post-power-loss image: a prefix of
// the pending entry ops is applied to the durable namespace, and each
// surviving file keeps its synced content plus a prefix of its unsynced
// tail. Callers hold the lock.
func (f *FS) crash() {
	f.crashed = true
	keep := 0
	if len(f.pending) > 0 {
		keep = int(f.rand() % uint64(len(f.pending)+1))
	}
	ns := make(map[string]*memFile, len(f.durable))
	for n, mf := range f.durable {
		ns[n] = mf
	}
	for _, op := range f.pending[:keep] {
		applyNsOp(ns, op)
	}
	// Sorted iteration keeps the per-file torn prefixes deterministic: map
	// order would consume the rng in a different order each run.
	names := make([]string, 0, len(ns))
	for n := range ns {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mf := ns[n]
		if len(mf.unsynced) > 0 {
			cut := int(f.rand() % uint64(len(mf.unsynced)+1))
			mf.synced = append(mf.synced, mf.unsynced[:cut]...)
		}
		mf.unsynced = nil
	}
	f.live = ns
	f.durable = ns
	f.pending = nil
}

func applyNsOp(ns map[string]*memFile, op nsOp) {
	switch op.kind {
	case 'c':
		ns[op.name] = op.file
	case 'r':
		if mf, ok := ns[op.name]; ok {
			ns[op.to] = mf
			delete(ns, op.name)
		}
	case 'd':
		delete(ns, op.name)
	}
}

// step gates one mutating operation: it fails permanently after a crash
// and fires the armed crash when the op counter reaches failAt. partial,
// when non-nil, applies the op's partial effect before the lights go out.
// Callers hold the lock.
func (f *FS) step(partial func()) error {
	if f.crashed {
		return ErrCrashed
	}
	if f.ops == f.failAt {
		if partial != nil {
			partial()
		}
		f.crash()
		return ErrCrashed
	}
	f.ops++
	return nil
}

// Disk returns a fresh filesystem over the current post-crash durable
// image (forcing the crash first if it has not fired), with injection
// disabled — the disk a restarted process would mount. Contents are
// deep-copied, so recovery's writes never alias the original.
func (f *FS) Disk() *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.crashed {
		f.crash()
	}
	d := New()
	for n, mf := range f.live {
		c := &memFile{synced: append([]byte(nil), mf.synced...)}
		d.live[n] = c
		d.durable[n] = c
	}
	return d
}

type failFile struct {
	fs *FS
	mf *memFile
}

func (w *failFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	err := w.fs.step(func() {
		cut := int(w.fs.rand() % uint64(len(p)+1))
		w.mf.unsynced = append(w.mf.unsynced, p[:cut]...)
	})
	if err != nil {
		return 0, err
	}
	w.mf.unsynced = append(w.mf.unsynced, p...)
	return len(p), nil
}

func (w *failFile) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	err := w.fs.step(func() {
		cut := int(w.fs.rand() % uint64(len(w.mf.unsynced)+1))
		w.mf.synced = append(w.mf.synced, w.mf.unsynced[:cut]...)
		w.mf.unsynced = w.mf.unsynced[cut:]
	})
	if err != nil {
		return err
	}
	w.mf.synced = append(w.mf.synced, w.mf.unsynced...)
	w.mf.unsynced = nil
	return nil
}

// Close is not a durability event: unsynced bytes stay attached to the
// file and survive only as far as a later crash's torn prefix allows.
func (w *failFile) Close() error { return nil }

// Create creates or truncates name. The new (empty) entry is pending
// until the next SyncDir.
func (f *FS) Create(name string) (wal.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(nil); err != nil {
		return nil, err
	}
	mf := &memFile{}
	f.live[name] = mf
	f.pending = append(f.pending, nsOp{kind: 'c', name: name, file: mf})
	return &failFile{fs: f, mf: mf}, nil
}

// OpenAppend opens name for appending, creating it if absent (creation is
// a pending entry op, like Create).
func (f *FS) OpenAppend(name string) (wal.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(nil); err != nil {
		return nil, err
	}
	mf, ok := f.live[name]
	if !ok {
		mf = &memFile{}
		f.live[name] = mf
		f.pending = append(f.pending, nsOp{kind: 'c', name: name, file: mf})
	}
	return &failFile{fs: f, mf: mf}, nil
}

// Open returns a reader over name's full content (synced + unsynced) as
// of the call — the running process sees its own writes.
func (f *FS) Open(name string) (io.ReadCloser, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	mf, ok := f.live[name]
	if !ok {
		return nil, &notExistError{name: name}
	}
	buf := make([]byte, 0, len(mf.synced)+len(mf.unsynced))
	buf = append(buf, mf.synced...)
	buf = append(buf, mf.unsynced...)
	return io.NopCloser(bytes.NewReader(buf)), nil
}

type notExistError struct{ name string }

func (e *notExistError) Error() string { return "failfs: file does not exist: " + e.name }

// Is lets callers tell a missing file from any other failure the way they
// would on a real filesystem.
func (e *notExistError) Is(target error) bool { return target == fs.ErrNotExist }

func (f *FS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(nil); err != nil {
		return err
	}
	mf, ok := f.live[oldname]
	if !ok {
		return &notExistError{name: oldname}
	}
	f.live[newname] = mf
	delete(f.live, oldname)
	f.pending = append(f.pending, nsOp{kind: 'r', name: oldname, to: newname})
	return nil
}

func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(nil); err != nil {
		return err
	}
	if _, ok := f.live[name]; !ok {
		return &notExistError{name: name}
	}
	delete(f.live, name)
	f.pending = append(f.pending, nsOp{kind: 'd', name: name})
	return nil
}

// Truncate cuts name to size. It is used by recovery to drop a torn log
// tail; the cut applies to the durable view directly (recovery runs on a
// freshly mounted disk with nothing unsynced).
func (f *FS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(nil); err != nil {
		return err
	}
	mf, ok := f.live[name]
	if !ok {
		return &notExistError{name: name}
	}
	if n := int(size); n <= len(mf.synced) {
		mf.synced = mf.synced[:n]
		mf.unsynced = nil
	} else if rest := n - len(mf.synced); rest <= len(mf.unsynced) {
		mf.unsynced = mf.unsynced[:rest]
	}
	return nil
}

func (f *FS) List() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	names := make([]string, 0, len(f.live))
	for n := range f.live {
		names = append(names, n)
	}
	return names, nil
}

// SyncDir makes every pending entry operation durable.
func (f *FS) SyncDir() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(nil); err != nil {
		return err
	}
	ns := make(map[string]*memFile, len(f.live))
	for n, mf := range f.live {
		ns[n] = mf
	}
	f.durable = ns
	f.pending = nil
	return nil
}
