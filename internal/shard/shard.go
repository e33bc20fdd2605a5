// Package shard implements a sharded scatter-gather engine over the core
// related-set pipeline. The collection is hash-partitioned into N
// independent core.Engine shards — each with its own inverted index, built
// in parallel — and every query fans out across the shards and merges
// their answers back under global set indices.
//
// The partitioning is an optimization, never a semantics change: because
// every shard runs the same exact pipeline over a disjoint slice of the
// collection, the union of per-shard answers is provably the serial
// engine's answer set, and scores are bit-identical (each pair's matching
// score depends only on the two sets, never on which index holds them).
// The package's differential tests pin this equivalence against the serial
// engine for every metric and similarity function.
//
// It is the only engine shape the public package holds. A shard set of one
// is the unpartitioned engine: its single shard indexes the global
// collection itself (no header copy, no index map), and its queries run on
// the caller's goroutine with no scatter and no merge.
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/obs"
)

// Engine is a sharded related-set engine: N independent core engines over
// a hash-partitioned collection, queried by scatter-gather. It is safe for
// concurrent use, including Add interleaved with queries (mutations take
// the write side of an internal lock, queries the read side).
type Engine struct {
	// mu serializes Add against queries. Queries only ever take the read
	// side, so they proceed in parallel.
	mu      sync.RWMutex
	opts    core.Options
	nshards int
	// global is the full collection under global set indices — the same
	// ordering the serial engine would use, which is what makes sharded
	// results directly comparable.
	global  *dataset.Collection
	engines []*core.Engine
	colls   []*dataset.Collection
	// l2g maps each shard's local indices back to global ones (the
	// global-to-local direction is recomputed from ShardOf when needed).
	// Sets are assigned in increasing global order, so every l2g[s] is
	// sorted ascending — the self-join dedup below depends on that. A
	// shard set of one has colls[0] == global and an identity map, kept
	// nil. Liveness has one source at every N: the owning shard's core
	// tombstone bitmap, reached through localOf.
	l2g [][]int
	// threshold is the engine-level tombstone ratio that triggers
	// compaction of every shard (<= 0 disables automatic compaction).
	// Per-shard core thresholds are disabled: the sharded engine drives
	// compaction globally so the shared dictionary and the global
	// collection headers are reclaimed together.
	threshold float64
	// shardHist[s] is shard s's scatter-pass latency histogram; every
	// scatter observes each shard's pass wall time, so a skewed partition
	// or a slow shard shows up as a diverging per-shard distribution.
	shardHist []obs.Histogram
	// stragglers counts scatters whose slowest shard exceeded
	// stragglerFactor × the median shard time (above stragglerFloor, with
	// at least two shards) — the tail-latency signal scatter-gather lives
	// or dies by.
	stragglers int64
}

// Straggler detection thresholds: a scatter counts as straggled when its
// slowest shard takes more than stragglerFactor times the median shard's
// wall time, and the slowest shard exceeded stragglerFloor (sub-100µs
// scatters are all noise).
const (
	stragglerFactor = 2
	stragglerFloor  = int64(100 * time.Microsecond)
)

// ShardOf returns the shard owning global set index g among n shards. The
// assignment hashes the index through a 64-bit finalizer, so shard loads
// stay balanced regardless of insertion patterns, and is a pure function
// of (g, n): rebuilding a collection reproduces the same partitioning,
// which the incremental == batch invariant relies on.
func ShardOf(g, n int) int {
	x := uint64(g)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// New hash-partitions coll into shards independent core engines and builds
// their inverted indexes in parallel. The shard collections share coll's
// dictionary, tokenization mode, and element storage: only the Set headers
// are copied, so sharding costs O(sets) extra memory, not O(tokens) — and a
// shard set of one copies nothing, its shard indexes coll itself.
func New(coll *dataset.Collection, shards int, opts core.Options) (*Engine, error) {
	return NewFromSnapshot(&dataset.SnapshotData{Coll: coll}, shards, opts)
}

// NewFromSnapshot is New for a collection loaded from a snapshot, whose
// dead slots persist as empty placeholders: each shard marks its dead
// locals, so global ids — which WAL records replayed on top of the
// snapshot reference — keep their meaning. Empty dead slots contribute no
// postings and no refcounts, so no release/compaction bookkeeping is owed
// for them.
//
// A shard set of one imports the index image the snapshot carries instead
// of rebuilding it. Persisted postings are global, so with more shards
// they are ignored and every shard rebuilds its index from its (already
// tokenized) collection.
func NewFromSnapshot(snap *dataset.SnapshotData, shards int, opts core.Options) (*Engine, error) {
	if shards < 1 {
		return nil, errors.New("shard: shard count must be >= 1")
	}
	coll := snap.Coll
	e := &Engine{
		nshards:   shards,
		global:    coll,
		colls:     make([]*dataset.Collection, shards),
		engines:   make([]*core.Engine, shards),
		l2g:       make([][]int, shards),
		threshold: opts.CompactionThreshold,
		shardHist: make([]obs.Histogram, shards),
	}
	opts.CompactionThreshold = 0 // compaction is driven globally, not per shard
	if shards == 1 {
		e.colls[0] = coll
	} else {
		for s := range e.colls {
			e.colls[s] = &dataset.Collection{Dict: coll.Dict, Mode: coll.Mode, Q: coll.Q}
		}
		e.route(0)
	}
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			e.engines[s], errs[s] = e.buildShard(s, snap, opts)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	e.opts = e.engines[0].Options()
	if snap.Dead == nil {
		return e, nil
	}
	for s, eng := range e.engines {
		local := snap.Dead
		if shards > 1 {
			local = make([]bool, len(e.l2g[s]))
			for li, g := range e.l2g[s] {
				local[li] = g < len(snap.Dead) && snap.Dead[g]
			}
		}
		eng.MarkDeadSlots(local)
	}
	return e, nil
}

// buildShard indexes shard s's collection — or, for a shard set of one
// over a snapshot that carries an index image, imports that image.
func (e *Engine) buildShard(s int, snap *dataset.SnapshotData, opts core.Options) (*core.Engine, error) {
	if e.nshards > 1 || snap.Containers == nil {
		return core.NewEngine(e.colls[s], opts)
	}
	var ix *index.Inverted
	if opts.CompressPostings {
		// Zero-copy lazy load: wrap the snapshot's encoded containers —
		// possibly aliasing a memory-mapped file — and decode a posting
		// list only when a probe first touches it.
		ix = index.FromContainers(snap.Coll, snap.Containers, true, opts.PostingCacheBytes)
	} else {
		lists, err := snap.DecodePostings()
		if err != nil {
			return nil, fmt.Errorf("decoding snapshot postings: %w", err)
		}
		ix = index.FromLists(snap.Coll, lists)
	}
	return core.NewEngineFromIndex(ix, opts)
}

// route copies the headers of global sets [from, len) into their owning
// shards' collections and extends l2g. A shard set of one shares the
// global collection and has nothing to copy.
func (e *Engine) route(from int) {
	if e.nshards == 1 {
		return
	}
	for g := from; g < len(e.global.Sets); g++ {
		s := ShardOf(g, e.nshards)
		e.colls[s].Sets = append(e.colls[s].Sets, e.global.Sets[g])
		e.l2g[s] = append(e.l2g[s], g)
	}
}

// localOf resolves a global set index to its owning shard and the local
// index within it. Callers must hold the engine's lock.
func (e *Engine) localOf(g int) (shard, local int) {
	s := ShardOf(g, e.nshards)
	return s, e.localRank(s, g)
}

// localRank counts shard s's sets with a global index below g — g's local
// index when s owns g.
func (e *Engine) localRank(s, g int) int {
	if e.nshards == 1 {
		return g
	}
	return sort.SearchInts(e.l2g[s], g)
}

// globalOf is localOf's inverse.
//
//silkmoth:hotpath
func (e *Engine) globalOf(shard, local int) int {
	if e.nshards == 1 {
		return local
	}
	return e.l2g[shard][local]
}

// toGlobal rewrites shard s's matches from local to global set indices.
//
//silkmoth:hotpath
func (e *Engine) toGlobal(s int, ms []core.Match) {
	if e.nshards == 1 {
		return
	}
	g := e.l2g[s]
	for i := range ms {
		ms[i].Set = g[ms[i].Set]
	}
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return e.nshards }

// Options returns the effective (normalized) engine options.
func (e *Engine) Options() core.Options { return e.opts }

// Collection returns the global collection under global set indices. The
// pointer is stable across Add, but its Sets slice must not be read
// concurrently with Add; query methods take the engine's lock for you.
func (e *Engine) Collection() *dataset.Collection { return e.global }

// Len returns the number of live sets across all shards.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.liveLocked()
}

func (e *Engine) liveLocked() int {
	n := 0
	for _, eng := range e.engines {
		n += eng.LiveCount()
	}
	return n
}

// NumSlots returns the size of the global index space: live sets plus
// tombstoned slots. Every match index is < NumSlots.
func (e *Engine) NumSlots() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.global.Sets)
}

// Alive reports whether global set g exists and is not deleted.
func (e *Engine) Alive(g int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.aliveLocked(g)
}

func (e *Engine) aliveLocked(g int) bool {
	if g < 0 || g >= len(e.global.Sets) {
		return false
	}
	s, local := e.localOf(g)
	return e.engines[s].Alive(local)
}

// liveSnapshotLocked returns the liveness of every global slot.
func (e *Engine) liveSnapshotLocked() []bool {
	out := make([]bool, len(e.global.Sets))
	for s, eng := range e.engines {
		for l := range e.colls[s].Sets {
			out[e.globalOf(s, l)] = eng.Alive(l)
		}
	}
	return out
}

// SnapshotData assembles the engine's durable image. The id space is
// preserved verbatim — dead slots persist as empty placeholders — because
// any WAL record appended after the snapshot references these runtime ids.
// A shard set of one contributes its posting lists (imported, not rebuilt,
// at load): the index itself is the source, so the writer pulls lists on
// demand (heap form) or copies encoded containers verbatim (compressed
// form) and snapshotting a lazily loaded index never forces a full
// materialization. Per-shard lists are meaningless globally, so with more
// shards no postings persist. The caller must keep mutations out until the
// image is written.
func (e *Engine) SnapshotData() *dataset.SnapshotData {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sd := &dataset.SnapshotData{Coll: e.global}
	if e.liveLocked() != len(e.global.Sets) {
		sd.Dead = e.liveSnapshotLocked()
		for g, live := range sd.Dead {
			sd.Dead[g] = !live
		}
	}
	if e.nshards == 1 {
		sd.Source = e.engines[0].Index()
	}
	return sd
}

// SharesContainers reports whether a shard's index borrows its container
// bytes from an external backing (a memory-mapped snapshot): the owner
// must call UnshareContainers before that backing is released.
func (e *Engine) SharesContainers() bool {
	for _, eng := range e.engines {
		if eng.Index().SharesContainers() {
			return true
		}
	}
	return false
}

// UnshareContainers copies borrowed container bytes onto the heap so the
// indexes survive their backing.
func (e *Engine) UnshareContainers() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, eng := range e.engines {
		eng.Index().UnshareContainers()
	}
}

// MatchScore computes the maximum matching score |r ∩̃ s| under the
// engine's options; it depends on the two sets only, never on a shard.
func (e *Engine) MatchScore(r, s *dataset.Set) float64 {
	return e.engines[0].MatchScore(r, s)
}

// Tombstones returns the number of deleted sets still occupying postings,
// summed across shards (zero right after a compaction).
func (e *Engine) Tombstones() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tombstonesLocked()
}

func (e *Engine) tombstonesLocked() int {
	n := 0
	for _, eng := range e.engines {
		n += eng.Tombstones()
	}
	return n
}

// Compactions returns the number of per-shard compaction passes run.
func (e *Engine) Compactions() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var n int64
	for _, eng := range e.engines {
		n += eng.Compactions()
	}
	return n
}

// Storage returns posting-storage statistics summed across all shard
// engines. Compressed is reported when every shard's index is compressed
// (shards share one configuration, so in practice it is all or none).
func (e *Engine) Storage() index.StorageStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sum := index.StorageStats{Compressed: len(e.engines) > 0}
	for _, eng := range e.engines {
		st := eng.Storage()
		sum.Postings += st.Postings
		sum.HeapBytes += st.HeapBytes
		sum.EncodedBytes += st.EncodedBytes
		sum.ResidentBytes += st.ResidentBytes
		sum.DirectoryBytes += st.DirectoryBytes
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.DecodeErrors += st.DecodeErrors
		sum.Compressed = sum.Compressed && st.Compressed
	}
	return sum
}

// CheckDirectories runs the element-directory self-check of every shard's
// index (index.Inverted.CheckDirectory): state derived from the shard's
// collection, which Add, Update, Delete, Compact and recovery must each
// leave agreeing with it. The mutation and recovery harnesses call it; nil
// means consistent.
func (e *Engine) CheckDirectories() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for s, eng := range e.engines {
		if err := eng.Index().CheckDirectory(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// Stats returns the pruning funnel summed across all shard engines.
func (e *Engine) Stats() core.Funnel {
	var sum core.Funnel
	for _, eng := range e.engines {
		st := eng.Stats()
		sum.Add(&st)
	}
	return sum
}

// Add tokenizes raws with the global collection's dictionary, appends them
// under the next global indices, and routes each new set to its owning
// shard, extending that shard's inverted index. Safe to call concurrently
// with queries: Add takes the write lock, so in-flight queries finish
// first and later ones see the grown collection.
func (e *Engine) Add(raws []dataset.RawSet) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addLocked(raws)
}

func (e *Engine) addLocked(raws []dataset.RawSet) {
	// Each shard's index extension starts where its collection ends now.
	froms := make([]int, e.nshards)
	for s, c := range e.colls {
		froms[s] = len(c.Sets)
	}
	e.route(dataset.Append(e.global, raws))
	for s, f := range froms {
		if f < len(e.colls[s].Sets) {
			e.engines[s].AppendSets(f)
		}
	}
}

// Delete tombstones global set g across the engine: the owning shard's
// core engine stops returning it immediately, self-join discovery skips
// it as a reference, and its slot index is never reused. Storage is
// reclaimed lazily: once the engine-wide tombstone ratio reaches the
// configured CompactionThreshold, every shard compacts and the shared
// dictionary is pruned.
//
// Delete is safe to call concurrently with the engine's query methods,
// with one caveat that compaction adds: reclaimed dictionary slots are
// recycled for future tokens, so a query set must not be tokenized
// against the shared dictionary before a compaction and searched after
// it — its interned ids could by then name different tokens. Callers
// must order query tokenization under the same read-side regime as the
// query itself (the public silkmoth.Engine does: it tokenizes inside the
// read-locked section of every query method).
func (e *Engine) Delete(g int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.deleteLocked(g)
}

func (e *Engine) deleteLocked(g int) error {
	if !e.aliveLocked(g) {
		return core.ErrNotFound
	}
	s, local := e.localOf(g)
	if err := e.engines[s].Delete(local); err != nil {
		return err
	}
	e.maybeCompactLocked()
	return nil
}

// Update replaces global set g with a new tokenization of raw: the new
// version is appended under the next global index (returned) and the old
// slot is tombstoned, all under one write-lock critical section, so no
// query ever observes both or neither version.
func (e *Engine) Update(g int, raw dataset.RawSet) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.aliveLocked(g) {
		return 0, core.ErrNotFound
	}
	newID := len(e.global.Sets)
	e.addLocked([]dataset.RawSet{raw})
	if err := e.deleteLocked(g); err != nil {
		return 0, err
	}
	return newID, nil
}

// maybeCompactLocked compacts every shard once the engine-wide tombstone
// ratio reaches the threshold.
func (e *Engine) maybeCompactLocked() {
	if e.threshold <= 0 {
		return
	}
	tomb := e.tombstonesLocked()
	if tomb == 0 {
		return
	}
	if float64(tomb) >= e.threshold*float64(e.liveLocked()+tomb) {
		e.compactLocked()
	}
}

// Compact forces a full compaction: dead sets' storage is dropped from the
// global collection, every shard rebuilds its posting lists over its live
// sets, and dictionary slots no live set references are freed for reuse.
// Global indices are unchanged.
func (e *Engine) Compact() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.compactLocked()
}

func (e *Engine) compactLocked() {
	for _, eng := range e.engines {
		eng.Compact()
	}
	// Shard collections copy Set headers from the global collection, so
	// per-shard compaction cleared only the local copies; clear the global
	// headers too or the element storage stays reachable. (A shard set of
	// one compacted the global collection itself: its l2g is nil.)
	for s, g := range e.l2g {
		for local, gi := range g {
			if e.colls[s].Sets[local].Elements == nil {
				e.global.Sets[gi].Elements = nil
			}
		}
	}
}

// sortMatches orders matches canonically: descending relatedness, ties by
// ascending (global) set index. This is the order the public API promises
// and the order per-shard streams feed the top-k merge in.
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

// scatter fans one reference set across every shard concurrently and
// gathers per-shard match lists rewritten to global indices; k ≥ 0
// additionally sorts each shard's list canonically and truncates it to
// the local top k (k < 0 keeps the shard's native pass order — callers
// sort the union once). Each shard's pass verifies serially (a
// core.Searcher), so one query costs at most Shards goroutines — the
// shard fan-out IS the query's parallelism, never compounded with the
// per-pass verification pool. The first shard error cancels the remaining
// shards' passes. Callers must hold the engine's read lock.
//
// q's overrides apply to every shard's pass, and its Stats capture (being
// internally synchronized) absorbs all of their funnels — the query-level
// explain of a scatter is the sum over shards, with each shard counting
// one pass. Under scheme Auto the per-shard cost models may pick different
// concrete schemes; the capture's per-scheme counters keep the split.
func (e *Engine) scatter(ctx context.Context, r *dataset.Set, k int, q *core.Query) ([][]core.Match, error) {
	per := make([][]core.Match, e.nshards)
	durs := make([]int64, e.nshards)
	err := FanOut(ctx, e.nshards, e.nshards, func(ctx context.Context, _, s int) error {
		start := time.Now()
		sr := e.engines[s].NewSearcher()
		defer sr.Close()
		ms, err := sr.SearchQuery(ctx, r, -1, q)
		// Observe before the error check so cancelled shards still count
		// toward the latency distribution.
		d := time.Since(start)
		durs[s] = int64(d)
		e.shardHist[s].Observe(d)
		if err != nil {
			return err
		}
		e.toGlobal(s, ms)
		if k >= 0 {
			ms = localTopK(ms, k)
		}
		per[s] = ms
		return nil
	})
	if err == nil {
		e.noteStraggler(durs)
	}
	return per, err
}

// noteStraggler bumps the straggler counter when the scatter's slowest
// shard ran away from the median. The median is found by rank counting —
// O(shards²) but allocation-free, and shard counts are small.
//
//silkmoth:hotpath
func (e *Engine) noteStraggler(durs []int64) {
	n := len(durs)
	if n < 2 {
		return
	}
	slowest := durs[0]
	for _, d := range durs[1:] {
		if d > slowest {
			slowest = d
		}
	}
	if slowest < stragglerFloor {
		return
	}
	var median int64
	for _, d := range durs {
		less, equal := 0, 0
		for _, o := range durs {
			switch {
			case o < d:
				less++
			case o == d:
				equal++
			}
		}
		// d is the (lower) median when rank n/2 falls inside its tie run.
		if less <= n/2 && less+equal > n/2 {
			median = d
			break
		}
	}
	if median > 0 && slowest > stragglerFactor*median {
		atomic.AddInt64(&e.stragglers, 1)
	}
}

// ShardLatencies returns per-shard snapshots of scatter-pass latency,
// indexed by shard.
func (e *Engine) ShardLatencies() []obs.HistogramSnapshot {
	out := make([]obs.HistogramSnapshot, len(e.shardHist))
	for s := range e.shardHist {
		out[s] = e.shardHist[s].Snapshot()
	}
	return out
}

// Stragglers returns the number of scatters whose slowest shard exceeded
// stragglerFactor × the median shard time.
func (e *Engine) Stragglers() int64 { return atomic.LoadInt64(&e.stragglers) }

// StageLatencies returns the per-stage latency histograms merged across
// every shard engine, indexed by core.Stage.
func (e *Engine) StageLatencies() [core.NumStages]obs.HistogramSnapshot {
	var out [core.NumStages]obs.HistogramSnapshot
	for _, eng := range e.engines {
		hs := eng.StageLatencies()
		for i := range out {
			out[i].Add(hs[i])
		}
	}
	return out
}

// SearchContext answers RELATED SET SEARCH for r by scatter-gather:
// every shard runs its pass concurrently and the union — equal to the
// serial engine's answer — is returned sorted by descending relatedness,
// ties by global index. r must be tokenized against the global
// collection's dictionary.
func (e *Engine) SearchContext(ctx context.Context, r *dataset.Set) ([]core.Match, error) {
	return e.SearchQueryContext(ctx, r, nil)
}

// SearchQueryContext is SearchContext with per-query overrides and stats
// capture threaded into every shard's pass. A nil q is exactly
// SearchContext.
func (e *Engine) SearchQueryContext(ctx context.Context, r *dataset.Set, q *core.Query) ([]core.Match, error) {
	return e.search(ctx, r, -1, q)
}

// search answers one reference in canonical order, truncated to the top k
// when k ≥ 0.
func (e *Engine) search(ctx context.Context, r *dataset.Set, k int, q *core.Query) ([]core.Match, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.nshards == 1 {
		// One shard's pass is the whole answer: it runs on the caller's
		// goroutine with nothing to gather, and — the query having no
		// fan-out to be its parallelism — may verify in parallel.
		ms, err := e.engines[0].SearchQueryContext(ctx, r, q)
		if err != nil {
			return nil, err
		}
		if k >= 0 {
			return localTopK(ms, k), nil
		}
		sortMatches(ms)
		return ms, nil
	}
	per, err := e.scatter(ctx, r, k, q)
	if err != nil {
		return nil, err
	}
	if k >= 0 {
		return mergeTopK(per, k), nil
	}
	n := 0
	for _, ms := range per {
		n += len(ms)
	}
	out := make([]core.Match, 0, n)
	for _, ms := range per {
		out = append(out, ms...)
	}
	sortMatches(out)
	return out, nil
}

// DiscoverContext answers RELATED SET DISCOVERY for refs against the
// sharded collection. When refs is the engine's own global collection the
// self-join is deduplicated exactly like the serial engine's: no
// self-pairs, and under SET-SIMILARITY each unordered pair reported once.
// Pairs are returned sorted by (R, S); scores are bit-identical to the
// serial engine's.
func (e *Engine) DiscoverContext(ctx context.Context, refs *dataset.Collection) ([]core.Pair, error) {
	return e.DiscoverQueryContext(ctx, refs, nil)
}

// DiscoverQueryContext is DiscoverContext with per-query overrides and
// stats capture: q shapes every ⟨reference, shard⟩ pass and its Stats
// capture absorbs all of their funnels. A nil q is exactly DiscoverContext.
func (e *Engine) DiscoverQueryContext(ctx context.Context, refs *dataset.Collection, q *core.Query) ([]core.Pair, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	selfJoin := refs == e.global
	n := len(refs.Sets)
	workers := Workers(e.opts.Concurrency, n)

	// Per-worker searchers (reusable pass scratch per shard) and pair
	// accumulators, merged after the fan-out.
	searchers := make([][]*core.Searcher, workers)
	for w := range searchers {
		searchers[w] = make([]*core.Searcher, e.nshards)
		for s := range searchers[w] {
			searchers[w][s] = e.engines[s].NewSearcher()
		}
	}
	defer func() {
		for _, ss := range searchers {
			for _, sr := range ss {
				sr.Close()
			}
		}
	}()
	locals := make([][]core.Pair, workers)

	err := FanOut(ctx, n, workers, func(ctx context.Context, w, ri int) error {
		if selfJoin && !e.aliveLocked(ri) {
			return nil // deleted sets are no longer references
		}
		r := &refs.Sets[ri]
		for s := 0; s < e.nshards; s++ {
			skip := -1
			if selfJoin && e.opts.Metric == core.SetSimilarity {
				// Candidates with global index ≤ ri are skipped; within
				// this shard those are exactly the locals whose global
				// index is ≤ ri, a prefix of the sorted l2g list.
				skip = e.localRank(s, ri+1) - 1
			}
			ms, err := searchers[w][s].SearchQuery(ctx, r, skip, q)
			if err != nil {
				return err
			}
			for _, m := range ms {
				gi := e.globalOf(s, m.Set)
				if selfJoin && gi == ri {
					continue // no self-pairs
				}
				locals[w] = append(locals[w], core.Pair{R: ri, S: gi, Relatedness: m.Relatedness, Score: m.Score})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pairs []core.Pair
	for _, local := range locals {
		pairs = append(pairs, local...)
	}
	sortPairs(pairs)
	return pairs, nil
}
