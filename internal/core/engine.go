package core

import (
	"context"
	"errors"
	"slices"
	"sync"

	"silkmoth/internal/dataset"
	"silkmoth/internal/filter"
	"silkmoth/internal/index"
	"silkmoth/internal/obs"
	"silkmoth/internal/sim"
)

// Numeric tolerances tying the pipeline's stages together. Pruning uses a
// slack three orders of magnitude larger than the acceptance epsilon, so a
// set discarded by any filter can never be one verification would accept;
// signature generation keeps its own ValiditySlack between the two.
const (
	// acceptEps is the absolute score tolerance of verification: a set is
	// related when its matching score reaches the exact threshold minus
	// acceptEps (absorbing float noise in the O(n³) matching itself).
	acceptEps = 1e-9
	// pruneSlack is how far below θ a sound upper bound must fall before
	// a filter may discard a candidate.
	pruneSlack = 1e-6
	// sizeEps guards the set-size filters' boundaries.
	sizeEps = 1e-9
)

// cancelCheckStride is how many verification-loop iterations pass between
// context checks. Verification is the expensive stage (O(n³) matching), so
// a small stride keeps cancellation latency near one matching computation.
const cancelCheckStride = 8

// ErrPostingDecode is returned by a search pass during which a posting
// container failed to decode. The pass has then worked from an incomplete
// posting list — candidates may be missing and, since the nearest-neighbor
// filter and verification read similarities off the postings, scores may
// be too low — so it returns no matches rather than wrong ones. Only a
// corrupted compressed index can cause it: containers built in memory are
// canonical, and persisted ones are CRC-checked on load.
var ErrPostingDecode = errors.New("silkmoth: a posting container failed to decode (corrupt index)")

// Match is one search result: a related set and its relatedness value.
type Match struct {
	// Set indexes the related set in the engine's collection.
	Set int
	// Relatedness is the metric value (similarity or containment), ≥ δ.
	Relatedness float64
	// Score is the underlying maximum matching score |R ∩̃ S|.
	Score float64
}

// Pair is one discovery result: indices of a related pair of sets.
type Pair struct {
	R, S        int
	Relatedness float64
	Score       float64
}

// Engine runs related-set search passes against one indexed collection.
// It is safe for concurrent use once built. Mutations — AppendSets,
// Delete, Compact — must be serialized against queries by the caller (the
// public silkmoth.Engine holds its one lock's write side around them, its
// queries the read side).
type Engine struct {
	opts Options
	coll *dataset.Collection
	ix   *index.Inverted
	phi  filter.SimFunc
	// fromOverlap is φ as a function of ⟨|r∩s|, |r|, |s|⟩ when Options.Sim
	// is token-based, nil under the edit similarities. When set, the search
	// pipeline's nearest-neighbor filter and verification score element
	// pairs from the index walk's shared-token counts instead of calling
	// phi (filter.Overlap), and candidate collection calls phi only for the
	// pairs the count of shared signature tokens cannot decide; un-indexed
	// sets and the brute-force oracle always call phi.
	fromOverlap sim.OverlapFunc
	// st is the cumulative Funnel: every retiring Searcher folds its
	// worker's running total in (Close), Stats reads it.
	st Capture
	// stage holds the per-stage latency histograms fed by timed passes
	// (Options.StageSample); snapshot via StageLatencies.
	stage [NumStages]obs.Histogram
	// srPool recycles Searchers (and the workers inside them): every
	// query path draws its per-pass scratch from here, so steady-state
	// queries reuse a bounded set of arenas instead of allocating.
	srPool sync.Pool
	// dead is the tombstone bitmap, allocated on first Delete. A dead
	// set keeps its collection slot (indices stay stable) but is skipped
	// by candidate generation, the full-scan fallback, and self-join
	// discovery; compaction later drops its postings and storage.
	dead        []bool
	numDead     int   // all dead sets (slots never resurrect)
	tombstoned  int   // dead sets whose postings are still indexed
	compactions int64 // compaction passes run
}

// NewEngine validates opts, checks that the collection's tokenization
// matches the similarity function, and builds the inverted index.
func NewEngine(coll *dataset.Collection, opts Options) (*Engine, error) {
	return NewEngineFromSnapshot(&dataset.SnapshotData{Coll: coll}, 1, opts)
}

// NewEngineFromIndex builds an engine over a pre-built inverted index,
// letting callers amortize one index across many engine configurations
// (the experiment harness sweeps schemes and filters over one corpus).
func NewEngineFromIndex(ix *index.Inverted, opts Options) (*Engine, error) {
	e, err := newEngine(ix.Collection(), opts)
	if err != nil {
		return nil, err
	}
	e.ix = ix
	return e, nil
}

// NewEngineFromSnapshot builds an engine over a snapshot's collection. The
// index image a snapshot carries is imported, not rebuilt; without one the
// index is built with its lists filled from width set-id ranges concurrently
// (index.BuildParallel). The snapshot's dead slots persist as empty
// placeholders: they are marked dead, so the ids that WAL records replayed on
// top of the snapshot reference keep their meaning. A fresh collection is a
// snapshot with neither.
func NewEngineFromSnapshot(snap *dataset.SnapshotData, width int, opts Options) (*Engine, error) {
	e, err := newEngine(snap.Coll, opts)
	if err != nil {
		return nil, err
	}
	if e.ix, err = snapshotIndex(snap, width, e.opts); err != nil {
		return nil, err
	}
	e.markDeadSlots(snap.Dead)
	return e, nil
}

// newEngine validates opts against coll and sets up everything but the
// index.
func newEngine(coll *dataset.Collection, opts Options) (*Engine, error) {
	o, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if coll.Mode != o.Sim.TokenMode() {
		return nil, errors.New("core: collection tokenization does not match similarity function")
	}
	if o.Sim.TokenMode() == dataset.ModeQGram && coll.Q != o.Q {
		return nil, errors.New("core: collection q does not match options q")
	}
	e := &Engine{opts: o, coll: coll}
	e.phi = phiFunc(o)
	e.fromOverlap = overlapFunc(o.Sim)
	retainSets(coll, 0)
	return e, nil
}

// phiFunc builds the α-thresholded element similarity φ_α.
func phiFunc(o Options) filter.SimFunc {
	alpha := o.Alpha
	switch o.Sim {
	case Jaccard:
		return func(r, s *dataset.Element) float64 {
			return sim.Alpha(sim.JaccardSorted(r.Tokens, s.Tokens), alpha)
		}
	case Eds:
		return func(r, s *dataset.Element) float64 {
			return sim.EdsAlphaLen(r.Raw, s.Raw, int(r.Length), int(s.Length), alpha)
		}
	case NEds:
		return func(r, s *dataset.Element) float64 {
			return sim.NEdsAlphaLen(r.Raw, s.Raw, int(r.Length), int(s.Length), alpha)
		}
	case Dice:
		return func(r, s *dataset.Element) float64 {
			return sim.Alpha(sim.DiceSorted(r.Tokens, s.Tokens), alpha)
		}
	case Cosine:
		return func(r, s *dataset.Element) float64 {
			return sim.Alpha(sim.CosineSorted(r.Tokens, s.Tokens), alpha)
		}
	default:
		panic("core: unknown similarity kind")
	}
}

// overlapFunc returns the formula behind phiFunc's kernel for the
// token-based similarities — JaccardSorted is JaccardFromOverlap of the
// intersection size, and so on — and nil for the edit similarities, which
// are not functions of a token count.
func overlapFunc(k SimKind) sim.OverlapFunc {
	switch k {
	case Jaccard:
		return sim.JaccardFromOverlap
	case Dice:
		return sim.DiceFromOverlap
	case Cosine:
		return sim.CosineFromOverlap
	default:
		return nil
	}
}

// lenBoundFunc returns, for the edit similarities, what phiFunc's kernel can
// reach given the two rune lengths alone, and nil for the token-based ones.
func lenBoundFunc(o Options) sim.LenBoundFunc {
	alpha := o.Alpha
	switch o.Sim {
	case Eds:
		return func(lx, ly int) float64 { return sim.EdsLenBound(lx, ly, alpha) }
	case NEds:
		return func(lx, ly int) float64 { return sim.NEdsLenBound(lx, ly, alpha) }
	default:
		return nil
	}
}

// Options returns the engine's effective (normalized) options.
func (e *Engine) Options() Options { return e.opts }

// Collection returns the indexed collection.
func (e *Engine) Collection() *dataset.Collection { return e.coll }

// SearchContext runs one related-set search pass (paper §3) for reference
// set r, which must be tokenized against the engine collection's
// dictionary, and returns the matches in canonical order. It aborts between
// verification steps when ctx is done and returns ctx.Err(). The pass runs on
// the caller's goroutine; SearchSplitContext may spread it over more.
func (e *Engine) SearchContext(ctx context.Context, r *dataset.Set) ([]Match, error) {
	return e.SearchQueryContext(ctx, r, nil)
}

// Searcher runs repeated search passes against one engine, reusing the
// per-pass scratch (candidate collector, nearest-neighbor searcher,
// signature selector, verification scratch, funnel record) across calls. It
// is the building block for callers that drive many passes themselves —
// Discover's workers, a split pass's helpers, and the batch API. A Searcher
// is not safe for concurrent use; create one per goroutine and Close it
// when done so its counters reach the engine and its scratch returns to the
// engine's pool.
type Searcher struct {
	e *Engine
	w *worker
}

// NewSearcher returns a Searcher over e, recycled from the engine's pool
// when one is available.
func (e *Engine) NewSearcher() *Searcher {
	if v := e.srPool.Get(); v != nil {
		return v.(*Searcher)
	}
	return &Searcher{e: e, w: e.newWorker()}
}

// Search runs one search pass for r, excluding candidate sets with
// collection index ≤ skip (pass -1 to consider every set). Verification
// runs serially within the pass: callers parallelize across passes, not
// within them.
func (s *Searcher) Search(ctx context.Context, r *dataset.Set, skip int) ([]Match, error) {
	return s.e.searchPass(ctx, r, skip, s.w, 1, nil)
}

// Close folds the worker's running total into the engine's counters,
// zeroes it so the pooled worker is not counted twice, and returns the
// searcher to the engine's pool. The caller must not use the Searcher
// afterwards.
func (s *Searcher) Close() {
	s.e.st.fold(&s.w.total)
	s.w.total = Funnel{}
	s.e.srPool.Put(s)
}

// sizeAccept reports whether a set of size nS can possibly be related to a
// reference of size nR under the engine's metric (paper footnote 6 and
// Definition 2's |R| ≤ |S| requirement).
func (e *Engine) sizeAccept(nR, nS int) bool {
	return e.sizeAcceptDelta(nR, nS, e.opts.Delta)
}

// sizeAcceptDelta is sizeAccept under an explicit threshold — the pass's
// effective δ, which a query may have overridden.
func (e *Engine) sizeAcceptDelta(nR, nS int, delta float64) bool {
	switch e.opts.Metric {
	case SetContainment:
		return nS >= nR
	default:
		return float64(nS) >= delta*float64(nR)-sizeEps &&
			float64(nS) <= float64(nR)/delta+sizeEps
	}
}

// DiscoverContext solves RELATED SET DISCOVERY (Problem 1) for the
// reference collection refs against the engine's collection. refs must
// share the engine collection's dictionary. When refs is the engine's own
// collection, the self-join is deduplicated under SET-SIMILARITY (each
// unordered pair reported once, self-pairs skipped); under SET-CONTAINMENT
// every ordered pair ⟨R, S⟩ with |R| ≤ |S|, R ≠ S is considered.
//
// Reference passes run on the engine's Concurrency workers (fanOut), each
// with its own scratch and funnel record (folded in on retirement), and the
// whole discovery aborts with ctx.Err() when ctx is done. Pairs are returned
// sorted by (R, S).
func (e *Engine) DiscoverContext(ctx context.Context, refs *dataset.Collection) ([]Pair, error) {
	return e.DiscoverQueryContext(ctx, refs, nil)
}

// DiscoverQueryContext is DiscoverContext with per-query overrides and
// stats capture: q shapes every reference pass of the discovery, and
// q.Stats (when non-nil) absorbs the passes' summed funnel. A nil q is
// exactly DiscoverContext.
func (e *Engine) DiscoverQueryContext(ctx context.Context, refs *dataset.Collection, q *Query) ([]Pair, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	selfJoin := refs == e.coll
	n := len(refs.Sets)
	local := make([][]Pair, e.fanOutWorkers(n)) // each worker appends to its own
	err := e.fanOut(ctx, n, func(ctx context.Context, sr *Searcher, w, ri int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if selfJoin && !e.alive(ri) {
			return nil // deleted sets are no longer references
		}
		selfSkip := -1
		if selfJoin && e.opts.Metric == SetSimilarity {
			selfSkip = ri
		}
		ms, err := sr.SearchQuery(ctx, &refs.Sets[ri], selfSkip, q)
		if err != nil {
			return err
		}
		for _, m := range ms {
			if selfJoin && m.Set == ri {
				continue // no self-pairs
			}
			local[w] = append(local[w], Pair{R: ri, S: m.Set, Relatedness: m.Relatedness, Score: m.Score})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pairs := slices.Concat(local...)
	sortPairs(pairs)
	return pairs, nil
}
