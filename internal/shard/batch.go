package shard

import (
	"context"
	"errors"
	"time"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
)

// SearchBatchContext answers one search per reference set. Queries fan
// out across Concurrency workers; each worker owns one reusable
// core.Searcher per shard (verification runs serially within a pass, as
// in Discover), so batch parallelism stays bounded at Concurrency instead
// of compounding with per-pass verification fan-out, and the per-shard
// collector scratch amortizes across the whole batch. Results are
// positionally aligned with refs, each sorted by descending relatedness
// (ties by global index), identical to running SearchContext per ref. The
// first error aborts the whole batch.
func (e *Engine) SearchBatchContext(ctx context.Context, refs []*dataset.Set) ([][]core.Match, error) {
	return e.SearchBatchQueries(ctx, refs, nil)
}

// SearchBatchQueries is SearchBatchContext with per-item overrides: qs,
// when non-nil, must align positionally with refs, and each item's passes
// run under its own query (nil items inherit the engine's configuration).
// An item whose query carries a Stats capture also gets its wall time
// accumulated there (AddElapsed), measured around the item's full
// cross-shard pass sequence.
func (e *Engine) SearchBatchQueries(ctx context.Context, refs []*dataset.Set, qs []*core.Query) ([][]core.Match, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	if qs != nil && len(qs) != len(refs) {
		return nil, errors.New("shard: per-item queries must align with refs")
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	workers := Workers(e.opts.Concurrency, len(refs))
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

	out := make([][]core.Match, len(refs))
	err := FanOut(ctx, len(refs), workers, func(ctx context.Context, w, qi int) error {
		var q *core.Query
		if qs != nil {
			q = qs[qi]
		}
		var start time.Time
		timed := q != nil && q.Stats != nil
		if timed {
			start = time.Now()
		}
		var ms []core.Match
		for s := 0; s < e.nshards; s++ {
			sm, err := searchers[w][s].SearchQuery(ctx, refs[qi], -1, q)
			if err != nil {
				return err
			}
			e.toGlobal(s, sm)
			if ms == nil {
				ms = sm // the pass's own slice: one shard copies nothing
			} else {
				ms = append(ms, sm...)
			}
		}
		sortMatches(ms)
		out[qi] = ms
		if timed {
			q.Stats.AddElapsed(time.Since(start))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
