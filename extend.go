package silkmoth

import (
	"io"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/wal"
)

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
	return dataset.SaveSnapshot(w, e.snapshotData())
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

// Compare computes the relatedness of two sets directly — the maximum
// matching metric value (SET-SIMILARITY or SET-CONTAINMENT per cfg.Metric)
// without any engine machinery. Delta is not consulted; callers get the raw
// metric. For SetContainment, r is the contained side and |r| must not
// exceed |s| (the metric is 0 otherwise, per Definition 2).
func Compare(r, s Set, cfg Config) (float64, error) {
	if cfg.Delta == 0 {
		cfg.Delta = 1 // Delta is irrelevant here but must validate
	}
	co, err := cfg.coreOptions()
	if err != nil {
		return 0, err
	}
	raws := toRaw([]Set{r, s})
	return core.Compare(raws[0], raws[1], co)
}
