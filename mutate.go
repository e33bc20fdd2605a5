package silkmoth

import (
	"errors"

	"silkmoth/internal/dataset"
	"silkmoth/internal/wal"
)

// ErrNotFound reports a Delete or Update aimed at a set id that is out of
// range or already deleted.
var ErrNotFound = errors.New("silkmoth: no such set")

// Delete removes the set with the given id (its index in the engine's
// collection) from every future query. The id is tombstoned, never reused:
// remaining sets keep their indices, Len shrinks by one, and searches,
// top-k, and discovery behave exactly as if the engine had been built
// without the set. Storage — postings, element tokens, and dictionary
// entries used by no surviving set — is reclaimed lazily once the
// tombstone ratio reaches Config.CompactionThreshold (or on an explicit
// Compact call). Delete is safe to call concurrently with queries: it
// takes the engine's write lock, so in-flight queries complete first and
// later ones see the shrunken collection.
// On a durable engine (Config.DataDir) the deletion is logged to the WAL
// and fsync'd before the tombstone is applied. The liveness check runs
// first, so failed deletes are never logged.
func (e *Engine) Delete(id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.sh.Alive(id) {
		return ErrNotFound
	}
	if err := e.appendWAL(&wal.Record{Op: wal.OpDelete, ID: id}); err != nil {
		return err
	}
	return e.applyDelete(id)
}

// Update replaces the set with the given id by a new version in one atomic
// step: the new tokenization is indexed under a fresh id (returned) and the
// old id is tombstoned, all under the engine's write lock, so no query ever
// observes both versions or neither. The old id becomes permanently
// invalid; storage follows Delete's lazy-compaction lifecycle.
// On a durable engine (Config.DataDir) the replacement is logged to the
// WAL and fsync'd before it is applied, after the liveness check, so only
// updates that will succeed are logged.
func (e *Engine) Update(id int, set Set) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	raw := dataset.RawSet{Name: set.Name, Elements: set.Elements}
	if !e.sh.Alive(id) {
		return 0, ErrNotFound
	}
	if err := e.appendWAL(&wal.Record{Op: wal.OpUpdate, ID: id, Sets: []dataset.RawSet{raw}}); err != nil {
		return 0, err
	}
	return e.applyUpdate(id, raw)
}

// Compact forces an immediate compaction regardless of the configured
// threshold: posting lists are rebuilt over the live sets, deleted sets'
// element storage is dropped, and dictionary entries no live set
// references are freed for reuse. Queries return identical results before
// and after. A no-op when nothing has been deleted since the last
// compaction.
func (e *Engine) Compact() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sh.Compact()
}

// Live reports whether the set with the given id exists and has not been
// deleted.
func (e *Engine) Live(id int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sh.Alive(id)
}
