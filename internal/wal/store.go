package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
	"sync/atomic"

	"silkmoth/internal/mmap"
)

// Store manages a flat directory of sequence-numbered snapshot/log pairs:
// snap-<seq>.snap holds a full engine image, wal-<seq>.log the mutation
// records appended after it. Recovery loads the newest loadable snapshot
// and replays its paired log; writing a new snapshot retires the previous
// pair. The caller (the public engine) serializes Append, WriteSnapshot,
// and Close under its write lock; the record counters are atomics so
// stats readers need no lock.
type Store struct {
	fsys FS
	// seq is the current pair's sequence number; 0 means no snapshot has
	// ever been written (an empty store).
	seq uint64
	// log is the open handle of wal-<seq>.log, nil until Begin or the
	// first WriteSnapshot.
	log File
	// broken latches the first append failure: a log whose tail state is
	// unknown (a failed write or sync) must not receive further records,
	// or replay could resurrect the failed one under later ids.
	broken error
	closed bool

	appended  atomic.Int64 // records appended by this process
	snapshots atomic.Int64 // snapshots written by this process
}

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("wal: store is closed")

func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }
func logName(seq uint64) string  { return fmt.Sprintf("wal-%08d.log", seq) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%d", &seq); err != nil || mid == "" {
		return 0, false
	}
	return seq, true
}

// Open scans fsys for existing snapshot/log pairs. It performs no
// destructive operation: leftover temp files from an interrupted snapshot
// are removed only once a later WriteSnapshot succeeds them, and the
// choice of which snapshot to load belongs to RecoverData.
func Open(fsys FS) (*Store, error) {
	s := &Store{fsys: fsys}
	seqs, err := s.snapshotSeqs()
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		s.seq = seqs[0]
	}
	return s, nil
}

// snapshotSeqs returns the available snapshot sequence numbers, newest
// first.
func (s *Store) snapshotSeqs() ([]uint64, error) {
	names, err := s.fsys.List()
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, n := range names {
		if seq, ok := parseSeq(n, "snap-", ".snap"); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}

// RecoverData walks the store's snapshots newest-first, calling load on
// each until one succeeds; the store's sequence then points at it, so
// ReplayWAL replays its paired log. Each candidate is handed over as one
// byte slice, memory-mapped when the FS supports it (zero-copy — the loader
// can keep sub-slices of the image alive) and read whole otherwise. When
// snapshots exist but none loads, the newest one's error is returned —
// under the store's crash discipline a renamed snapshot is always fully
// synced, so an unloadable one is real corruption (or a retired format),
// not a crash artifact.
//
// Only two failures move on to an older snapshot: a file that no longer
// exists, and content load rejects. Any other failure to open or read a
// snapshot — EIO, EMFILE, EACCES — fails recovery: the older pair
// WriteSnapshot retires only best-effort would open the engine on a stale
// image and silently drop every record of the newer log.
//
// On success the returned Mapping backs the bytes that were handed to load;
// the caller owns it and must keep it open for as long as any slice of the
// image is referenced, then Close it. Mappings for candidates that failed
// to load are closed here. Returns (false, nil, nil) on an empty store.
func (s *Store) RecoverData(load func(data []byte) error) (bool, *mmap.Mapping, error) {
	seqs, err := s.snapshotSeqs()
	if err != nil {
		return false, nil, err
	}
	var firstErr error
	for _, seq := range seqs {
		m, err := s.openSnapshotData(seq)
		if errors.Is(err, fs.ErrNotExist) {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err != nil {
			return false, nil, fmt.Errorf("wal: reading %s: %w", snapName(seq), err)
		}
		if err := load(m.Data()); err != nil {
			if cerr := m.Close(); cerr != nil && firstErr == nil {
				firstErr = cerr
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.seq = seq
		return true, m, nil
	}
	if firstErr != nil {
		return false, nil, fmt.Errorf("wal: no loadable snapshot: %w", firstErr)
	}
	return false, nil, nil
}

// openSnapshotData maps snapshot seq when the FS can, else reads it whole.
// A mapping failure on a readable file degrades to the read path rather
// than failing recovery.
func (s *Store) openSnapshotData(seq uint64) (*mmap.Mapping, error) {
	name := snapName(seq)
	if mf, ok := s.fsys.(MapFS); ok {
		if m, err := mf.Map(name); err == nil {
			return m, nil
		}
	}
	rc, err := s.fsys.Open(name)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return mmap.FromBytes(data), nil
}

// ReplayWAL decodes the current pair's log and applies each record in
// order. A torn tail — an incomplete or checksum-failing final record, the
// expected shape after a crash mid-append — stops replay cleanly: the log
// is truncated back to its valid prefix (so future appends extend intact
// history) and torn reports it happened. Corruption before the tail, or an
// apply error, aborts with an error. A log that does not exist replays
// zero records (the crash window between snapshot rename and log
// creation); any other failure to open it fails recovery — treating a
// transient EMFILE/EIO/EACCES as "no log" would open the engine on the bare
// snapshot and let the next append land after records never replayed.
func (s *Store) ReplayWAL(apply func(*Record) error) (replayed int, torn bool, err error) {
	if s.seq == 0 {
		return 0, false, nil
	}
	name := logName(s.seq)
	rc, err := s.fsys.Open(name)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	buf, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, false, err
	}
	off := 0
	for off < len(buf) {
		rec, n, err := DecodeRecord(buf[off:])
		if errors.Is(err, ErrTorn) {
			torn = true
			break
		}
		if err != nil {
			return replayed, false, fmt.Errorf("wal: record %d: %w", replayed, err)
		}
		if err := apply(&rec); err != nil {
			return replayed, false, fmt.Errorf("wal: applying record %d: %w", replayed, err)
		}
		replayed++
		off += n
	}
	if torn {
		if err := s.fsys.Truncate(name, int64(off)); err != nil {
			return replayed, true, err
		}
		if err := s.fsys.SyncDir(); err != nil {
			return replayed, true, err
		}
	}
	return replayed, torn, nil
}

// Begin opens the current pair's log for appending, creating it if the
// crash window left it missing, and makes its directory entry durable.
// Call it after RecoverData/ReplayWAL; WriteSnapshot opens its own log.
func (s *Store) Begin() error {
	if s.closed {
		return ErrClosed
	}
	if s.seq == 0 {
		return errors.New("wal: Begin before any snapshot")
	}
	if s.log != nil {
		return nil
	}
	f, err := s.fsys.OpenAppend(logName(s.seq))
	if err != nil {
		return err
	}
	if err := s.fsys.SyncDir(); err != nil {
		return errors.Join(err, f.Close())
	}
	s.log = f
	return nil
}

// Append encodes rec, writes it to the active log, and fsyncs before
// returning: a nil error means the mutation is durable. Any failure
// latches the log broken — the tail state on disk is unknown, so no
// further records may follow it.
func (s *Store) Append(rec *Record) error {
	if s.closed {
		return ErrClosed
	}
	if s.broken != nil {
		return fmt.Errorf("wal: log is broken by earlier failure: %w", s.broken)
	}
	if s.log == nil {
		return errors.New("wal: no active log (call Begin or WriteSnapshot first)")
	}
	frame := AppendRecord(nil, rec)
	if _, err := s.log.Write(frame); err != nil {
		s.broken = err
		return err
	}
	if err := s.log.Sync(); err != nil {
		s.broken = err
		return err
	}
	s.appended.Add(1)
	return nil
}

// WriteSnapshot atomically installs a new snapshot/log pair: write writes
// the image to a temp file, which is fsync'd, renamed into place, and made
// durable with a directory sync before an empty successor log is created;
// only then is the previous pair removed (best-effort — stale pairs are
// harmless, recovery picks the newest). On success the store's appends go
// to the new log. On failure the old pair — and, unless the failure hit
// the old log itself, the old log handle — remain active.
func (s *Store) WriteSnapshot(write func(w io.Writer) error) error {
	if s.closed {
		return ErrClosed
	}
	next := s.seq + 1
	tmp := snapName(next) + ".tmp"
	f, err := s.fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fsys.Rename(tmp, snapName(next)); err != nil {
		return err
	}
	if err := s.fsys.SyncDir(); err != nil {
		return err
	}
	// The snapshot is durable; open its empty log and make the entry
	// durable before acknowledging, so records appended next cannot land
	// in a file a crash could unlink.
	lf, err := s.fsys.Create(logName(next))
	if err != nil {
		return err
	}
	if err := s.fsys.SyncDir(); err != nil {
		return errors.Join(err, lf.Close())
	}
	if s.log != nil {
		// The retired log's tail is already superseded by the durable
		// snapshot; a close failure here cannot un-acknowledge anything.
		s.log.Close() //silkmothlint:ignore fsyncerr retired log, rotation is already durable
	}
	prev := s.seq
	s.seq = next
	s.log = lf
	s.broken = nil
	s.snapshots.Add(1)
	if prev > 0 {
		// Best-effort retirement; a crash mid-removal leaves extra files
		// recovery simply ignores.
		s.fsys.Remove(snapName(prev))
		s.fsys.Remove(logName(prev))
		s.fsys.SyncDir() //silkmothlint:ignore fsyncerr best-effort retirement of a superseded pair
	}
	return nil
}

// Seq returns the current snapshot sequence number (0 = empty store).
func (s *Store) Seq() uint64 { return s.seq }

// Appended returns the number of records this process appended.
func (s *Store) Appended() int64 { return s.appended.Load() }

// Snapshots returns the number of snapshots this process wrote.
func (s *Store) Snapshots() int64 { return s.snapshots.Load() }

// Close releases the active log handle. The store refuses further writes.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.log != nil {
		err := s.log.Close()
		s.log = nil
		return err
	}
	return nil
}
