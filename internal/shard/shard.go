// Package shard runs one related-set engine's searches on more than one
// goroutine. An Engine wraps one core.Engine — one collection, dictionary,
// inverted index and element directory — and a width N. A search generates
// its signature once, and a pass that proves long cuts its candidate work
// into set-id chunks that the caller and up to N−1 helpers claim from one
// counter: each chunk collects, refines and verifies its own candidates
// through posting lists opened once and cut to the chunk
// (core.Engine.SearchSplitContext). A short pass stays on the caller's
// goroutine. The chunks' matches are concatenated before the one canonical
// sort or top-k cut.
//
// The split is a schedule, never a semantics change: every chunk runs the
// same exact pipeline over a disjoint slice of the candidates, so the union
// of the chunks' answers is the unsplit pass's answer and scores are
// bit-identical. The package's differential tests pin this equivalence
// against the serial engine for every metric and similarity function, with
// the split forced on.
//
// Discovery and batches do not split: they run one whole-collection pass
// per reference on the engine's Concurrency workers. Mutations, compaction
// and snapshots are the one engine's, so a snapshot's index image serves
// every width.
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/obs"
)

// Engine is a related-set engine whose searches may run on several
// goroutines. It is safe for concurrent use, including mutations
// interleaved with queries (mutations take the write side of an internal
// lock, queries the read side).
type Engine struct {
	// mu serializes mutations against queries. Queries only ever take the
	// read side, so they proceed in parallel.
	mu  sync.RWMutex
	eng *core.Engine
	// width is the most goroutines one search runs on.
	width int
}

// New builds the engine over coll, each search on at most width goroutines.
// The index build fills its posting lists from width set-id ranges
// concurrently (index.BuildParallel).
func New(coll *dataset.Collection, width int, opts core.Options) (*Engine, error) {
	return NewFromSnapshot(&dataset.SnapshotData{Coll: coll}, width, opts)
}

// NewFromSnapshot is New for a collection loaded from a snapshot, whose
// dead slots persist as empty placeholders: they are marked dead, so global
// ids — which WAL records replayed on top of the snapshot reference — keep
// their meaning. Empty dead slots contribute no postings and no refcounts,
// so no release/compaction bookkeeping is owed for them. The index image a
// snapshot carries is imported, not rebuilt, at every width.
func NewFromSnapshot(snap *dataset.SnapshotData, width int, opts core.Options) (*Engine, error) {
	if width < 1 {
		return nil, errors.New("shard: shard count must be >= 1")
	}
	ix, err := buildIndex(snap, width, opts)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngineFromIndex(ix, opts)
	if err != nil {
		return nil, err
	}
	eng.MarkDeadSlots(snap.Dead)
	return &Engine{eng: eng, width: width}, nil
}

// buildIndex imports the snapshot's index image, or builds the index with
// its lists filled from width set-id ranges concurrently.
func buildIndex(snap *dataset.SnapshotData, width int, opts core.Options) (*index.Inverted, error) {
	switch {
	case snap.Containers != nil && opts.CompressPostings:
		// Zero-copy lazy load: wrap the snapshot's encoded containers —
		// possibly aliasing a memory-mapped file — and decode a posting
		// list only when a probe first touches it.
		return index.FromContainers(snap.Coll, snap.Containers, true, opts.PostingCacheBytes), nil
	case snap.Containers != nil:
		lists, err := snap.DecodePostings()
		if err != nil {
			return nil, fmt.Errorf("decoding snapshot postings: %w", err)
		}
		return index.FromLists(snap.Coll, lists), nil
	}
	ix := index.BuildParallel(snap.Coll, width)
	if opts.CompressPostings {
		ix.Compress(opts.PostingCacheBytes)
	}
	return ix, nil
}

// Shards returns the engine's width: the most goroutines one search runs on.
func (e *Engine) Shards() int { return e.width }

// Options returns the effective (normalized) engine options.
func (e *Engine) Options() core.Options { return e.eng.Options() }

// Collection returns the collection under the ids the engine speaks. The
// pointer is stable across Add, but its Sets slice must not be read
// concurrently with Add; query methods take the engine's lock for you.
func (e *Engine) Collection() *dataset.Collection { return e.eng.Collection() }

// Len returns the number of live sets.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.eng.LiveCount()
}

// NumSlots returns the size of the id space: live sets plus tombstoned
// slots. Every match index is < NumSlots.
func (e *Engine) NumSlots() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.eng.Collection().Sets)
}

// Alive reports whether set g exists and is not deleted.
func (e *Engine) Alive(g int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.eng.Alive(g)
}

// SnapshotData assembles the engine's durable image. The id space is
// preserved verbatim — dead slots persist as empty placeholders — because
// any WAL record appended after the snapshot references these runtime ids.
// The image carries the posting lists (imported, not rebuilt, at load): the
// index itself is the source, so the writer pulls lists on demand (heap
// form) or copies encoded containers verbatim (compressed form) and
// snapshotting a lazily loaded index never forces a full materialization.
// The caller must keep mutations out until the image is written.
func (e *Engine) SnapshotData() *dataset.SnapshotData {
	e.mu.RLock()
	defer e.mu.RUnlock()
	coll := e.eng.Collection()
	sd := &dataset.SnapshotData{Coll: coll, Source: e.eng.Index()}
	if e.eng.LiveCount() != len(coll.Sets) {
		sd.Dead = make([]bool, len(coll.Sets))
		for g := range sd.Dead {
			sd.Dead[g] = !e.eng.Alive(g)
		}
	}
	return sd
}

// SharesContainers reports whether the index borrows its container bytes
// from an external backing (a memory-mapped snapshot): the owner must call
// UnshareContainers before that backing is released.
func (e *Engine) SharesContainers() bool { return e.eng.Index().SharesContainers() }

// UnshareContainers copies borrowed container bytes onto the heap so the
// index survives its backing.
func (e *Engine) UnshareContainers() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.eng.Index().UnshareContainers()
}

// MatchScore computes the maximum matching score |r ∩̃ s| under the
// engine's options; it depends on the two sets only.
func (e *Engine) MatchScore(r, s *dataset.Set) float64 { return e.eng.MatchScore(r, s) }

// Tombstones returns the number of deleted sets still occupying postings
// (zero right after a compaction).
func (e *Engine) Tombstones() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.eng.Tombstones()
}

// Compactions returns the number of compaction passes run.
func (e *Engine) Compactions() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.eng.Compactions()
}

// Storage returns the index's posting-storage statistics.
func (e *Engine) Storage() index.StorageStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.eng.Storage()
}

// CheckDirectories runs the index's element-directory self-check
// (index.Inverted.CheckDirectory): state derived from the collection, which
// Add, Update, Delete, Compact and recovery must each leave agreeing with
// it. The mutation and recovery harnesses call it; nil means consistent.
func (e *Engine) CheckDirectories() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.eng.Index().CheckDirectory()
}

// Stats returns the engine's cumulative pruning funnel.
func (e *Engine) Stats() core.Funnel { return e.eng.Stats() }

// Add tokenizes raws with the collection's dictionary, appends them under
// the next ids and extends the index over them. Safe to call concurrently
// with queries: Add takes the write lock, so in-flight queries finish first
// and later ones see the grown collection.
func (e *Engine) Add(raws []dataset.RawSet) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.eng.AppendSets(dataset.Append(e.eng.Collection(), raws))
}

// Delete tombstones set g: queries stop returning it immediately,
// self-join discovery skips it as a reference, and its slot index is never
// reused. Storage is reclaimed lazily: once the tombstone ratio reaches the
// configured CompactionThreshold, the engine compacts and the dictionary is
// pruned.
//
// Delete is safe to call concurrently with the engine's query methods,
// with one caveat that compaction adds: reclaimed dictionary slots are
// recycled for future tokens, so a query set must not be tokenized
// against the dictionary before a compaction and searched after it — its
// interned ids could by then name different tokens. Callers must order
// query tokenization under the same read-side regime as the query itself
// (the public silkmoth.Engine does: it tokenizes inside the read-locked
// section of every query method).
func (e *Engine) Delete(g int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.eng.Delete(g)
}

// Update replaces set g with a new tokenization of raw: the new version is
// appended under the next id (returned) and the old slot is tombstoned,
// all under one write-lock critical section, so no query ever observes both
// or neither version.
func (e *Engine) Update(g int, raw dataset.RawSet) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.eng.Alive(g) {
		return 0, core.ErrNotFound
	}
	coll := e.eng.Collection()
	newID := len(coll.Sets)
	e.eng.AppendSets(dataset.Append(coll, []dataset.RawSet{raw}))
	if err := e.eng.Delete(g); err != nil {
		return 0, err
	}
	return newID, nil
}

// Compact forces a full compaction: dead sets' storage is dropped, the
// posting lists are rebuilt over the live sets, and dictionary slots no
// live set references are freed for reuse. Set ids are unchanged.
func (e *Engine) Compact() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.eng.Compact()
}

// sortMatches orders matches canonically: descending relatedness, ties by
// ascending set index. This is the order the public API promises.
//
//silkmoth:hotpath
func sortMatches(ms []core.Match) {
	slices.SortFunc(ms, func(a, b core.Match) int {
		if a.Relatedness != b.Relatedness {
			if a.Relatedness > b.Relatedness {
				return -1
			}
			return 1
		}
		return a.Set - b.Set
	})
}

// sortPairs orders pairs by (R, S).
func sortPairs(ps []core.Pair) {
	slices.SortFunc(ps, func(a, b core.Pair) int {
		if a.R != b.R {
			return a.R - b.R
		}
		return a.S - b.S
	})
}

// StageLatencies returns the engine's per-stage latency histograms, indexed
// by core.Stage.
func (e *Engine) StageLatencies() [core.NumStages]obs.HistogramSnapshot {
	return e.eng.StageLatencies()
}

// SearchContext answers RELATED SET SEARCH for r on at most the engine's
// width of goroutines, returned sorted by descending relatedness, ties by
// index — equal to the serial engine's answer. r must be tokenized against
// the collection's dictionary.
func (e *Engine) SearchContext(ctx context.Context, r *dataset.Set) ([]core.Match, error) {
	return e.SearchQueryContext(ctx, r, nil)
}

// SearchQueryContext is SearchContext with per-query overrides and stats
// capture threaded into the query's pass. A nil q is exactly SearchContext.
func (e *Engine) SearchQueryContext(ctx context.Context, r *dataset.Set, q *core.Query) ([]core.Match, error) {
	return e.search(ctx, r, -1, q)
}

// search answers one reference in canonical order, truncated to the top k
// when k ≥ 0.
func (e *Engine) search(ctx context.Context, r *dataset.Set, k int, q *core.Query) ([]core.Match, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ms, err := e.eng.SearchSplitContext(ctx, r, q, e.width)
	if err != nil {
		return nil, err
	}
	if k >= 0 {
		return localTopK(ms, k), nil
	}
	sortMatches(ms)
	return ms, nil
}

// DiscoverContext answers RELATED SET DISCOVERY for refs against the
// engine's collection. When refs is the engine's own collection the
// self-join is deduplicated: no self-pairs, and under SET-SIMILARITY each
// unordered pair reported once. Pairs are returned sorted by (R, S).
func (e *Engine) DiscoverContext(ctx context.Context, refs *dataset.Collection) ([]core.Pair, error) {
	return e.DiscoverQueryContext(ctx, refs, nil)
}

// DiscoverQueryContext is DiscoverContext with per-query overrides and
// stats capture: q shapes every reference's pass and its Stats capture
// absorbs all of their funnels. A nil q is exactly DiscoverContext. The
// passes are whole-collection ones on the engine's Concurrency workers
// (core.Engine.DiscoverQueryContext); discovery does not split.
func (e *Engine) DiscoverQueryContext(ctx context.Context, refs *dataset.Collection, q *core.Query) ([]core.Pair, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	pairs, err := e.eng.DiscoverQueryContext(ctx, refs, q)
	if err != nil {
		return nil, err
	}
	sortPairs(pairs)
	return pairs, nil
}
