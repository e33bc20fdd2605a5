package silkmoth

import (
	"context"
	"io"
	"slices"
	"time"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/wal"
)

// SearchTopK returns the k most related sets to ref among those whose
// relatedness reaches Delta, ordered by descending relatedness. It is
// exactly Search with a trailing WithK(k), so options compose the same
// way (the k argument wins over any WithK in opts).
func (e *Engine) SearchTopK(ref Set, k int, opts ...QueryOption) ([]Match, error) {
	return e.SearchTopKContext(context.Background(), ref, k, opts...)
}

// SearchTopKContext is SearchTopK with cancellation. The search's one pass
// feeds its matches through one bounded heap that keeps the best k, so the
// answer costs O(m log k) for m matches instead of a full sort.
func (e *Engine) SearchTopKContext(ctx context.Context, ref Set, k int, opts ...QueryOption) ([]Match, error) {
	if k <= 0 {
		return nil, nil
	}
	// Appending WithK last makes the method's k argument override any
	// WithK in opts (later options win); the copy keeps the caller's
	// backing array untouched.
	withK := make([]QueryOption, 0, len(opts)+1)
	withK = append(append(withK, opts...), WithK(k))
	return e.SearchContext(ctx, ref, withK...)
}

// Add tokenizes and indexes additional sets, growing the engine's
// collection in place. Add is safe to call concurrently with queries: it
// takes the engine's write lock, so in-flight searches complete first and
// later ones see the grown collection.
//
// On a durable engine (Config.DataDir) the mutation is logged to the WAL
// and fsync'd before it is applied, so a nil return means the sets survive
// a crash. A heap-only engine's Add never fails.
func (e *Engine) Add(sets []Set) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	raws := toRaw(sets)
	if err := e.appendWAL(&wal.Record{Op: wal.OpAdd, Sets: raws}); err != nil {
		return err
	}
	e.applyAdd(raws)
	return nil
}

// SaveCollection writes the engine's persisted image to w: byte for byte
// the snapshot file Snapshot would write under Config.DataDir at the same
// state — tokenized sets, tombstones, and the inverted index. Reload it
// with NewEngineFromSaved, at any shard count, to skip re-tokenizing and
// re-indexing a large corpus.
//
// A mutated engine saves compacted — the token table is pruned to what
// live sets use and deleted sets persist as empty placeholders — so set
// ids survive the save/load cycle and the reloaded engine answers like a
// fresh build over the surviving sets.
func (e *Engine) SaveCollection(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return dataset.SaveSnapshot(w, e.eng.SnapshotData())
}

// NewEngineFromSaved builds an engine from an image written by
// SaveCollection (or a snap-*.snap file copied out of a data dir): durable
// recovery minus the write-ahead log. cfg must request the tokenization
// the image was built with: a word-token similarity (Jaccard, Dice,
// Cosine) for word-tokenized collections, an edit similarity with the same
// Q for q-gram collections (Q = 0 adopts the persisted value). Shards and
// CompressedPostings need not match the saving engine's.
//
// With Config.DataDir set, existing durable state in the directory wins
// exactly as in NewEngine: r is only consumed when the directory is empty,
// to bootstrap the engine and its initial snapshot.
func NewEngineFromSaved(r io.Reader, cfg Config) (*Engine, error) {
	build := func() (*Engine, error) {
		snap, err := dataset.LoadSnapshot(r)
		if err != nil {
			return nil, err
		}
		e, err := engineFromSnapshot(snap, cfg)
		if err != nil {
			return nil, err
		}
		// A compressed index views its containers inside the buffer
		// LoadSnapshot read; copy them out so the engine does not pin the
		// whole file image.
		e.eng.Index().UnshareContainers()
		return e, nil
	}
	if cfg.DataDir == "" {
		return build()
	}
	fsys, err := wal.DirFS(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	return newDurableEngine(build, cfg, fsys)
}

// SortMatchesByIndex re-sorts a search result list by collection index,
// for callers that want stable positional output instead of the default
// relatedness ordering.
func SortMatchesByIndex(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int { return a.Index - b.Index })
}

// Compare computes the relatedness of two sets directly — the maximum
// matching metric value (SET-SIMILARITY or SET-CONTAINMENT per cfg.Metric)
// without any engine machinery. Delta is not consulted; callers get the raw
// metric. For SetContainment, r is the contained side and |r| must not
// exceed |s| (the metric is 0 otherwise, per Definition 2).
//
// Compare accepts the same options as the query methods for uniformity,
// but a single pairwise matching probes no index: only WithExplain (one
// verified pair, wall time) and WithReduction observably apply; scheme,
// k, δ, and filter options are validated and otherwise inert.
func Compare(r, s Set, cfg Config, opts ...QueryOption) (float64, error) {
	qo, err := compileOptions(opts)
	if err != nil {
		return 0, err
	}
	var start time.Time
	if qo.explain != nil {
		start = time.Now()
	}
	if qo.reduction == core.ToggleOff {
		cfg.DisableReduction = true
	}
	if cfg.Delta == 0 {
		cfg.Delta = 1 // Delta is irrelevant here but must validate
	}
	cfg.Shards = 1 // one pairwise matching has nothing to split
	// A caller's engine Config may name its data directory (a durable
	// server passes its own): the throwaway one-set engine must neither
	// recover that collection in place of s nor write there, and being
	// heap-only it holds nothing to close.
	cfg.DataDir = ""
	eng, err := NewEngine([]Set{s}, cfg)
	if err != nil {
		return 0, err
	}
	rel := func() float64 {
		if len(r.Elements) > len(s.Elements) && cfg.Metric == SetContainment {
			return 0
		}
		score, nR, nS := eng.matchScore(r)
		if nR == 0 {
			return 0
		}
		if cfg.Metric == SetContainment {
			return score / float64(nR)
		}
		return score / (float64(nR+nS) - score)
	}()
	if qo.explain != nil {
		*qo.explain = Explain{Passes: 1, Verified: 1, Elapsed: time.Since(start)}
	}
	return rel, nil
}

// matchScore computes |r ∩̃ S0| between a query set and the engine's only
// collection set, returning the score and both sizes.
func (e *Engine) matchScore(r Set) (score float64, nR, nS int) {
	qc, release := e.tokenizeQuery([]Set{r})
	defer release()
	rs := &qc.Sets[0]
	ss := &e.coll.Sets[0]
	return e.eng.MatchScore(rs, ss), len(rs.Elements), len(ss.Elements)
}
