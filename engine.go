package silkmoth

import (
	"context"
	"sync"
	"time"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/mmap"
	"silkmoth/internal/tokens"
	"silkmoth/internal/wal"
)

// Engine indexes a collection of sets and answers related-set searches and
// discoveries over it. Build once, query many times; an Engine is safe for
// concurrent use, including Add concurrent with queries. Queries never
// block each other: they share the read side of the engine's one lock, and
// the token dictionary synchronizes its own interning.
//
// An Engine holds one core engine, with one inverted index over its
// collection, and a width. A search runs on the caller's goroutine and, once
// it proves long, on up to Config.Shards goroutines in all (GOMAXPROCS by
// default), which claim its set-id chunks after one shared signature. The
// API and results are the same at every width.
type Engine struct {
	eng *core.Engine
	// coll is eng's collection, under the ids the API speaks.
	coll *dataset.Collection
	// width is the most goroutines one search runs on: Config.Shards
	// resolved.
	width int
	// mu is the engine's one lock. It serializes mutations (Add, Delete,
	// Update, Compact, Snapshot) against queries: mutators take the write
	// side, queries the read side — including query tokenization, which must
	// not observe compaction's dictionary slot recycling mid-flight.
	mu sync.RWMutex

	// Durability (nil/zero on a heap-only engine). store is the
	// snapshot/WAL pair under Config.DataDir; the rest records what
	// recovery found, surfaced through Stats.
	store     *wal.Store
	recovered bool
	replayed  int
	torn      bool
	// snapMap is the memory-mapped snapshot the index's compressed
	// containers alias after a zero-copy load; Close unshares the index
	// and unmaps it.
	snapMap *mmap.Mapping
}

// NewEngine tokenizes the collection according to cfg and builds the
// inverted index over it, its lists filled from as many set-id ranges in
// parallel as a search's width (Config.Shards).
//
// With Config.DataDir set, NewEngine is also the recovery entry point: if
// the directory holds durable state, that state wins — sets is ignored and
// the engine is reconstructed from the latest snapshot plus WAL replay.
// Otherwise sets bootstraps the engine and its initial snapshot.
func NewEngine(sets []Set, cfg Config) (*Engine, error) {
	if cfg.DataDir != "" {
		fsys, err := wal.DirFS(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		return newDurableEngine(func() (*Engine, error) {
			return newHeapEngine(sets, cfg)
		}, cfg, fsys)
	}
	return newHeapEngine(sets, cfg)
}

// newHeapEngine is NewEngine without the durability layer: tokenize and
// index in memory.
func newHeapEngine(sets []Set, cfg Config) (*Engine, error) {
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	raws := toRaw(sets)
	dict := tokens.NewDictionary()
	var coll *dataset.Collection
	if opts.Sim.TokenMode() == dataset.ModeWord {
		coll = dataset.BuildWord(dict, raws)
	} else {
		if opts.Q == 0 {
			opts.Q = core.DefaultQ(opts.Delta, opts.Alpha)
		}
		coll = dataset.BuildQGram(dict, raws, opts.Q)
	}
	return newEngine(&dataset.SnapshotData{Coll: coll}, cfg, opts)
}

// newEngine builds the core engine over a snapshot's collection (a fresh
// one's has no index image and no dead slots) at the width cfg resolves to.
func newEngine(snap *dataset.SnapshotData, cfg Config, opts core.Options) (*Engine, error) {
	width := cfg.width()
	eng, err := core.NewEngineFromSnapshot(snap, width, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng, coll: snap.Coll, width: width}, nil
}

// Shards returns the engine's width: the most goroutines one search runs
// on, Config.Shards resolved (GOMAXPROCS when it is 0).
func (e *Engine) Shards() int { return e.width }

func toRaw(sets []Set) []dataset.RawSet {
	raws := make([]dataset.RawSet, len(sets))
	for i, s := range sets {
		raws[i] = dataset.RawSet{Name: s.Name, Elements: s.Elements}
	}
	return raws
}

// queryScratchPool recycles per-query tokenization buffers across all
// engines in the process: scratches carry no per-engine state (the
// dictionary is passed per call), and one pool keeps steady-state query
// traffic allocation-free regardless of how many engines share it.
var queryScratchPool = sync.Pool{New: func() any { return new(dataset.QueryScratch) }}

// tokenizeQuery tokenizes query sets against the engine's dictionary. The
// dictionary synchronizes its own interning; callers must hold at least the
// engine's read lock (against concurrent Add — and against compaction's
// key reclamation, which the lock orders before or after the whole query).
// Element keys are looked up, never interned (dataset.QueryScratch follows
// BuildQuery's contract), so query traffic cannot grow the key table.
//
// The returned collection is built on the returned pooled scratch; the
// caller must put the scratch back into queryScratchPool once nothing
// references the collection anymore — after the core matches are converted
// to public results, which alias nothing of the query.
func (e *Engine) tokenizeQuery(raws []dataset.RawSet) (*dataset.QueryScratch, *dataset.Collection) {
	qs := queryScratchPool.Get().(*dataset.QueryScratch)
	return qs, qs.Build(e.coll.Dict, raws, e.coll.Mode, e.coll.Q)
}

// ErrPostingDecode is returned by a query during which a compressed
// posting container failed to decode (Stats.PostingDecodeErrors moved).
// The query worked from an incomplete posting list, so candidates may be
// missing and scores too low; it returns this error instead of matches. In
// a batch only the items that met the failure carry it (Result.Err). Only a
// corrupted index can cause it — containers built in memory are canonical
// and persisted ones are CRC-checked on load — so it is not retryable.
var ErrPostingDecode = core.ErrPostingDecode

// Discover returns all related pairs within the engine's collection — the
// paper's RELATED SET DISCOVERY (Problem 1) with R = S. Under SetSimilarity
// each unordered pair is reported once (R < S); under SetContainment every
// ordered pair ⟨R, S⟩ with |R| ≤ |S| is considered. Pairs are sorted by
// (R, S).
// Options apply to every reference pass of the discovery (WithK is a
// search-shaped option and is ignored here); a WithExplain capture sums
// the funnels of all passes. Discover's error-free signature swallows
// failures — including option-validation errors like an out-of-range
// WithDelta — as an empty result; callers passing options should prefer
// DiscoverContext, which reports them.
func (e *Engine) Discover(opts ...QueryOption) []Pair {
	ps, _ := e.DiscoverContext(context.Background(), opts...)
	return ps
}

// DiscoverContext is Discover with cancellation: it aborts and returns
// ctx.Err() when ctx is done. Reference passes run on up to
// Config.Concurrency workers, each pass at the width those workers leave
// idle (Config.Shards / workers goroutines, at least one), so a discovery on
// one worker splits its long passes as a search does; the sorted output is
// identical at every width and concurrency.
func (e *Engine) DiscoverContext(ctx context.Context, opts ...QueryOption) ([]Pair, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.discoverLocked(ctx, e.coll, opts)
}

// discoverLocked compiles the per-query options and runs one discovery
// with refs as the R side (the engine's own collection selects self-join
// semantics). Callers hold the read lock.
func (e *Engine) discoverLocked(ctx context.Context, refs *dataset.Collection, opts []QueryOption) ([]Pair, error) {
	var qo queryOptions
	if err := qo.compile(opts); err != nil {
		return nil, err
	}
	q := qo.coreQuery()
	var start time.Time
	if qo.explain != nil {
		start = time.Now()
	}
	// Passing e.coll itself selects self-join semantics.
	ps, err := e.eng.DiscoverQueryContext(ctx, refs, q, e.width)
	if err != nil {
		return nil, err
	}
	out := e.toPairs(ps, refs)
	qo.finishExplain(q, time.Since(start))
	return out, nil
}

// DiscoverAgainst finds all related pairs ⟨R, S⟩ with R from refs and S from
// the engine's collection. Options apply to every reference pass.
func (e *Engine) DiscoverAgainst(refs []Set, opts ...QueryOption) ([]Pair, error) {
	return e.DiscoverAgainstContext(context.Background(), refs, opts...)
}

// DiscoverAgainstContext is DiscoverAgainst with cancellation.
func (e *Engine) DiscoverAgainstContext(ctx context.Context, refs []Set, opts ...QueryOption) ([]Pair, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	scratch, qc := e.tokenizeQuery(toRaw(refs))
	defer queryScratchPool.Put(scratch)
	return e.discoverLocked(ctx, qc, opts)
}

// toPairs rewrites core pairs into the public form, keeping core's (R, S)
// order.
func (e *Engine) toPairs(ps []core.Pair, refs *dataset.Collection) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{
			R: p.R, S: p.S,
			RName:         refs.Sets[p.R].Name,
			SName:         e.coll.Sets[p.S].Name,
			Relatedness:   p.Relatedness,
			MatchingScore: p.Score,
		}
	}
	return out
}

// Len returns the number of live sets in the engine's collection. Deleted
// sets no longer count, though their ids stay reserved (ids are stable and
// never reused for a different set).
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.eng.LiveCount()
}

// SetName returns the name of the set with id i, and "" for an id the
// engine never assigned: one below 0 or past the last id Add or Update
// handed out. A deleted set's id stays assigned.
func (e *Engine) SetName(i int) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if i < 0 || i >= len(e.coll.Sets) {
		return ""
	}
	return e.coll.Sets[i].Name
}

// Stats returns the engine's cumulative pruning funnel and collection
// lifecycle counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := e.eng.Stats()
	ps := e.eng.Storage()
	out := Stats{
		SearchPasses: st.SearchPasses,
		Funnel:       funnelOf(st),
		SchemeCounts: SchemeCounts{
			SchemeWeighted:       st.SchemeWeighted,
			SchemeSkyline:        st.SchemeSkyline,
			SchemeDichotomy:      st.SchemeDichotomy,
			SchemeCombUnweighted: st.SchemeCombUnweighted,
		},
		TimedPasses:  st.TimedPasses,
		Stages:       stageTimes(st),
		SplitPasses:  st.SplitPasses,
		HelperChunks: st.HelperChunks,
		Live:         e.eng.LiveCount(),
		Tombstones:   e.eng.Tombstones(),
		Compactions:  e.eng.Compactions(),
		PostingStorage: PostingStorage{
			CompressedPostings:    ps.Compressed,
			Postings:              ps.Postings,
			PostingHeapBytes:      ps.HeapBytes,
			PostingEncodedBytes:   ps.EncodedBytes,
			PostingResidentBytes:  ps.ResidentBytes,
			PostingDirectoryBytes: ps.DirectoryBytes,
			PostingCacheHits:      ps.CacheHits,
			PostingCacheMisses:    ps.CacheMisses,
			PostingDecodeErrors:   ps.DecodeErrors,
			SnapshotMapped:        e.snapMap != nil && e.snapMap.Mapped(),
		},
	}
	if e.store != nil {
		out.Durability = Durability{
			Snapshots:         e.store.Snapshots(),
			WALRecords:        e.store.Appended(),
			RecoveredSnapshot: e.recovered,
			WALReplayed:       e.replayed,
			WALTornTail:       e.torn,
		}
	}
	return out
}
