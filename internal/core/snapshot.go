package core

import (
	"fmt"

	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
)

// Index returns the engine's inverted index, for snapshot writers that
// persist its posting lists. Callers must hold the mutation lock the
// engine's owner uses to serialize mutations.
func (e *Engine) Index() *index.Inverted { return e.ix }

// Storage returns the index's posting-storage statistics (compression
// ratio, resident decoded bytes, cache traffic). O(vocabulary); intended
// for stats endpoints, not hot paths.
func (e *Engine) Storage() index.StorageStats { return e.ix.Storage() }

// snapshotIndex imports the snapshot's index image, or builds the index with
// its lists filled from width set-id ranges concurrently.
func snapshotIndex(snap *dataset.SnapshotData, width int, o Options) (*index.Inverted, error) {
	switch {
	case snap.Containers != nil && o.CompressPostings:
		// Zero-copy lazy load: wrap the snapshot's encoded containers —
		// possibly aliasing a memory-mapped file — and decode a posting
		// list only when a probe first touches it.
		return index.FromContainers(snap.Coll, snap.Containers, true, o.PostingCacheBytes), nil
	case snap.Containers != nil:
		lists, err := snap.DecodePostings()
		if err != nil {
			return nil, fmt.Errorf("decoding snapshot postings: %w", err)
		}
		return index.FromLists(snap.Coll, lists), nil
	}
	ix := index.BuildParallel(snap.Coll, width)
	if o.CompressPostings {
		ix.Compress(o.PostingCacheBytes)
	}
	return ix, nil
}

// SnapshotData assembles the engine's durable image. The id space is
// preserved verbatim — dead slots persist as empty placeholders — because
// any WAL record appended after the snapshot references these ids. The image
// carries the posting lists (imported, not rebuilt, at load): the index
// itself is the source, so the writer pulls lists on demand (heap form) or
// copies encoded containers verbatim (compressed form) and snapshotting a
// lazily loaded index never forces a full materialization. The caller must
// keep mutations out until the image is written.
func (e *Engine) SnapshotData() *dataset.SnapshotData {
	sd := &dataset.SnapshotData{Coll: e.coll, Source: e.ix}
	if e.numDead > 0 {
		sd.Dead = make([]bool, len(e.coll.Sets))
		for g := range sd.Dead {
			sd.Dead[g] = !e.alive(g)
		}
	}
	return sd
}

// markDeadSlots marks the slots with dead[i] true as deleted without
// touching postings, refcounts, or the tombstone counter. It exists for
// loading snapshots, whose dead slots are empty placeholders: they hold no
// elements, carry no postings, and retained nothing at build time, so
// there is nothing to release and nothing for a later compaction to
// reclaim — the slot just has to stay invisible to queries and keep its
// index reserved.
func (e *Engine) markDeadSlots(dead []bool) {
	for i, d := range dead {
		if d && i < len(e.coll.Sets) && e.alive(i) {
			e.growDead()
			e.dead[i] = true
			e.numDead++
		}
	}
}
