package core

import (
	"errors"
)

// ErrNotFound reports a Delete or Update aimed at a set index that is out
// of range or already deleted.
var ErrNotFound = errors.New("core: no such set")

// alive reports whether collection set i is not tombstoned. It is the hot
// check candidate generation runs per distinct set, so the bitmap stays a
// plain slice guarded by the caller's engine lock.
func (e *Engine) alive(i int) bool {
	return i >= len(e.dead) || !e.dead[i]
}

// growDead sizes the tombstone bitmap to the collection, allocating it on
// first use (append on the nil slice).
func (e *Engine) growDead() {
	for len(e.dead) < len(e.coll.Sets) {
		e.dead = append(e.dead, false)
	}
}

// Alive reports whether collection set i exists and is not deleted.
func (e *Engine) Alive(i int) bool {
	return i >= 0 && i < len(e.coll.Sets) && e.alive(i)
}

// LiveCount returns the number of live (non-deleted) sets.
func (e *Engine) LiveCount() int { return len(e.coll.Sets) - e.numDead }

// Tombstones returns the number of deleted sets whose postings are still
// in the inverted index (reset to zero by compaction).
func (e *Engine) Tombstones() int { return e.tombstoned }

// Compactions returns the number of compaction passes the engine has run.
func (e *Engine) Compactions() int64 { return e.compactions }

// AppendSets extends the engine's inverted index over sets appended to its
// collection since index build (dataset.Append) and grows the tombstone
// bitmap. Not safe concurrently with queries: callers must serialize
// appends against searches.
func (e *Engine) AppendSets(from int) {
	e.ix.AppendSets(from)
	if e.dead != nil { // stays nil (all-alive fast path) until first Delete
		e.growDead()
	}
}

// Delete tombstones collection set i: the slot keeps its index (stable
// ids), but the set disappears from every query — candidate generation,
// the full-scan fallback, and self-join discovery all skip it. Delete
// only marks the slot: postings, element storage and the dictionary ids
// no live set uses are reclaimed lazily by Compact, which Delete triggers
// itself once the tombstone ratio reaches the engine's
// CompactionThreshold. Not safe concurrently with queries: callers must
// serialize mutations, as with AppendSets.
func (e *Engine) Delete(i int) error {
	if i < 0 || i >= len(e.coll.Sets) || !e.alive(i) {
		return ErrNotFound
	}
	e.growDead()
	e.dead[i] = true
	e.numDead++
	e.tombstoned++
	e.maybeCompact()
	return nil
}

// maybeCompact runs Compact once the tombstone ratio — dead-but-indexed
// sets over all indexed sets — reaches the configured threshold.
func (e *Engine) maybeCompact() {
	t := e.opts.CompactionThreshold
	if t <= 0 || e.tombstoned == 0 {
		return
	}
	indexed := e.LiveCount() + e.tombstoned
	if float64(e.tombstoned) >= t*float64(indexed) {
		e.Compact()
	}
}

// Compact reclaims everything the engine's tombstones still hold: dead
// sets' element storage is dropped, the inverted index is rebuilt over the
// live sets (so stale postings disappear and signature selection costs
// tighten back up), and the dictionary ids no live set uses — found by
// marking the ids of the sets that remain — are freed for reuse. Set
// indices are unchanged — dead slots stay dead — so results before and
// after compaction are identical. Not safe concurrently with queries.
func (e *Engine) Compact() {
	if e.tombstoned == 0 {
		return
	}
	e.coll.DropSets(e.dead)
	e.ix.Rebuild()
	toks, keys := e.coll.Used(nil) // dead sets were dropped above
	e.coll.Dict.Reclaim(toks)
	e.coll.Dict.Keys().Reclaim(keys)
	e.tombstoned = 0
	e.compactions++
}
