package core

import (
	"errors"

	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
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
// collection since index build (dataset.Append), retaining their dictionary
// tokens and growing the tombstone bitmap. Not safe concurrently with
// queries: callers must serialize appends against searches.
func (e *Engine) AppendSets(from int) {
	e.ix.AppendSets(from)
	e.retainSets(from)
	if e.dead != nil { // stays nil (all-alive fast path) until first Delete
		e.growDead()
	}
}

// Delete tombstones collection set i: the slot keeps its index (stable
// ids), but the set disappears from every query — candidate generation,
// the full-scan fallback, and self-join discovery all skip it — and its
// dictionary tokens are released so compaction can shrink the vocabulary.
// Postings and element storage are reclaimed lazily by Compact, which
// Delete triggers itself once the tombstone ratio reaches the engine's
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
	e.releaseSet(i)
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
// tighten back up), and dictionary slots no live set references are freed
// for reuse. Set indices are unchanged — dead slots stay dead — so results
// before and after compaction are identical. Not safe concurrently with
// queries.
func (e *Engine) Compact() {
	if e.tombstoned == 0 {
		return
	}
	for i := range e.dead {
		if e.dead[i] {
			e.coll.Sets[i].Drop()
		}
	}
	e.ix.Rebuild()
	e.coll.Dict.Reclaim()
	e.coll.Dict.Keys().Reclaim()
	e.tombstoned = 0
	e.compactions++
}

// setRefs stages one set's dictionary references — every token and chunk
// occurrence, every element key — in slices reused from set to set, so
// that retaining or releasing a set takes the dictionary's lock twice
// rather than twice per element.
type setRefs struct{ toks, keys []tokens.ID }

func (r *setRefs) stage(s *dataset.Set) {
	r.toks, r.keys = r.toks[:0], r.keys[:0]
	for j := range s.Elements {
		el := &s.Elements[j]
		r.toks = append(r.toks, el.Tokens...)
		if el.Key != dataset.NoKey {
			r.keys = append(r.keys, el.Key)
		}
	}
	r.toks = append(r.toks, s.ChunkIDs()...)
}

// retainSets bumps dictionary refcounts for every token and chunk
// occurrence and every element key of e.coll.Sets[from:], the exact
// references releaseSet drops on delete.
func (e *Engine) retainSets(from int) {
	d := e.coll.Dict
	for i := from; i < len(e.coll.Sets); i++ {
		e.refs.stage(&e.coll.Sets[i])
		d.Retain(e.refs.toks)
		d.Keys().Retain(e.refs.keys)
	}
}

// releaseSet drops the dictionary references retainSets took for set i.
func (e *Engine) releaseSet(i int) {
	d := e.coll.Dict
	e.refs.stage(&e.coll.Sets[i])
	d.Release(e.refs.toks)
	d.Keys().Release(e.refs.keys)
}
