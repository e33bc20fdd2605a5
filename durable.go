package silkmoth

import (
	"errors"
	"fmt"
	"io"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/shard"
	"silkmoth/internal/wal"
)

// ErrNoDataDir reports a durability operation (Snapshot) on an engine
// built without Config.DataDir.
var ErrNoDataDir = errors.New("silkmoth: durability not enabled (Config.DataDir is empty)")

// newDurableEngine opens (or initializes) the snapshot/WAL store on fsys
// and returns a recovered or bootstrapped engine. When the store holds a
// snapshot, the engine is reconstructed from it — no re-tokenization and,
// at any shard count, no re-indexing — and the paired log is replayed over
// it; otherwise build supplies a fresh engine and the initial snapshot is
// written before the first mutation can be logged.
func newDurableEngine(build func() (*Engine, error), cfg Config, fsys wal.FS) (*Engine, error) {
	st, err := wal.Open(fsys)
	if err != nil {
		return nil, err
	}
	var e *Engine
	loaded, m, err := st.RecoverData(func(data []byte) error {
		snap, err := dataset.LoadSnapshotBytes(data)
		if err != nil {
			return err
		}
		e, err = engineFromSnapshot(snap, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if loaded {
		// The store handed over the snapshot's bytes, memory-mapped when it
		// could. The engine owns them from here: Close — on every error
		// return below too — unshares the index and unmaps.
		e.snapMap = m
		if err := e.finishRecovery(st); err != nil {
			return nil, errors.Join(fmt.Errorf("silkmoth: recovering from %q: %w", cfg.DataDir, err), e.Close())
		}
		return e, nil
	}
	e, err = build()
	if err != nil {
		return nil, err
	}
	e.store = st
	if err := e.writeSnapshotLocked(); err != nil {
		st.Close()
		return nil, fmt.Errorf("silkmoth: writing initial snapshot: %w", err)
	}
	return e, nil
}

// finishRecovery finishes opening an engine loaded from st's snapshot: a
// mapping the index does not borrow from is released at once (every load
// path but the compressed lazy one copied what it needed), the paired log
// is replayed, and the log is opened for appending.
func (e *Engine) finishRecovery(st *wal.Store) error {
	if !e.sh.SharesContainers() {
		m := e.snapMap
		e.snapMap = nil
		if err := m.Close(); err != nil {
			return err
		}
	}
	e.recovered = true
	n, torn, err := st.ReplayWAL(e.applyRecord)
	if err != nil {
		return err
	}
	e.replayed, e.torn = n, torn
	if err := st.Begin(); err != nil {
		return err
	}
	e.store = st
	return nil
}

// engineFromSnapshot reconstructs an engine from a loaded snapshot image:
// collection and dictionary as persisted (dead slots empty, ids intact for
// WAL replay), tombstones restored, and the inverted index imported (or
// built, for an image that carries none).
func engineFromSnapshot(snap *dataset.SnapshotData, cfg Config) (*Engine, error) {
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	if !(opts.Delta > 0 && opts.Delta <= 1) { // NaN fails too
		return nil, errors.New("silkmoth: Config.Delta must be in (0, 1]")
	}
	if opts.Q == 0 {
		opts.Q = snap.Coll.Q
	}
	sh, err := shard.NewFromSnapshot(snap, cfg.width(), opts)
	if err != nil {
		return nil, err
	}
	return &Engine{sh: sh, coll: snap.Coll}, nil
}

// applyRecord replays one WAL record against the engine's in-memory state.
// Replay runs before the engine is shared, so no locking — and crucially
// no re-logging — happens here. Records were appended after validation, so
// a target that is not alive at replay time means the log and snapshot
// disagree: corruption, reported as an error rather than skipped.
func (e *Engine) applyRecord(rec *wal.Record) error {
	switch rec.Op {
	case wal.OpAdd:
		// Add and Update append at len(coll.Sets) unconditionally, which
		// is what makes replay reproduce the original id assignment.
		e.sh.Add(rec.Sets)
		return nil
	case wal.OpDelete:
		return e.applyDelete(rec.ID)
	case wal.OpUpdate:
		if len(rec.Sets) != 1 {
			return fmt.Errorf("update record carries %d sets", len(rec.Sets))
		}
		_, err := e.applyUpdate(rec.ID, rec.Sets[0])
		return err
	default:
		return fmt.Errorf("unknown op %d", rec.Op)
	}
}

// applyDelete tombstones id in memory.
func (e *Engine) applyDelete(id int) error {
	err := e.sh.Delete(id)
	if errors.Is(err, core.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

// applyUpdate replaces id in memory, returning the replacement's new id.
func (e *Engine) applyUpdate(id int, raw dataset.RawSet) (int, error) {
	newID, err := e.sh.Update(id, raw)
	if errors.Is(err, core.ErrNotFound) {
		return 0, ErrNotFound
	}
	return newID, err
}

// appendWAL logs one mutation record, fsync'd, before the mutation is
// applied in memory (write-ahead ordering: an acknowledged mutation is
// always durable, and a logged-but-unapplied one is re-applied by replay).
// No-op on a heap-only engine. Callers hold the write lock.
func (e *Engine) appendWAL(rec *wal.Record) error {
	if e.store == nil {
		return nil
	}
	return e.store.Append(rec)
}

// Snapshot writes a new durable snapshot of the engine's current state and
// rotates the write-ahead log: the image lands in a temp file, is fsync'd
// and atomically renamed into place, and a fresh empty log replaces the
// old one, whose records the snapshot now subsumes. Mutations are blocked
// for the duration (Snapshot takes the write lock); queries drain first.
// Returns ErrNoDataDir on a heap-only engine.
func (e *Engine) Snapshot() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return ErrNoDataDir
	}
	return e.writeSnapshotLocked()
}

// writeSnapshotLocked persists the engine's durable image
// (shard.Engine.SnapshotData). Callers hold the write lock, which keeps
// mutations out while the writer reads the index.
func (e *Engine) writeSnapshotLocked() error {
	return e.store.WriteSnapshot(func(w io.Writer) error {
		return dataset.SaveSnapshot(w, e.sh.SnapshotData())
	})
}

// Close releases the engine's durability resources (the open write-ahead
// log handle). It does not write a snapshot: the log already holds every
// acknowledged mutation, so a future open replays to the identical state.
// A heap-only engine's Close is a no-op. The engine must not be mutated
// after Close; further Add/Delete/Update calls fail.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if e.snapMap != nil {
		// The index borrowed the mapped snapshot's container bytes; copy
		// them onto the heap before the mapping goes away so reads after
		// Close stay safe.
		e.sh.UnshareContainers()
		err = e.snapMap.Close()
		e.snapMap = nil
	}
	if e.store != nil {
		err = errors.Join(err, e.store.Close())
	}
	return err
}
