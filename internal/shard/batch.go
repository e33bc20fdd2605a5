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
// core.Searcher and runs one whole-collection pass per reference, verifying
// serially (as in Discover), so batch parallelism stays bounded at
// Concurrency instead of compounding with a search's helpers, and the
// collector scratch amortizes across the whole batch.
// Results are positionally aligned with refs, each sorted by descending
// relatedness (ties by index), identical to running SearchContext per ref.
// The first error aborts the whole batch; an item's own failure (see
// SearchBatchQueries) fails it too.
func (e *Engine) SearchBatchContext(ctx context.Context, refs []*dataset.Set) ([][]core.Match, error) {
	out, itemErrs, err := e.SearchBatchQueries(ctx, refs, nil)
	if err == nil {
		err = errors.Join(itemErrs...)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SearchBatchQueries is SearchBatchContext with per-item overrides: qs,
// when non-nil, must align positionally with refs, and each item's passes
// run under its own query (nil items inherit the engine's configuration).
// An item whose query carries a Stats capture also gets its wall time
// accumulated there (AddElapsed), measured around the item's pass.
//
// An item whose pass read a corrupt posting container
// (core.ErrPostingDecode) fails alone: it has no matches, its error is in
// the second result at its position, and the batch goes on. The second
// result is nil when no item failed. Any other error — cancellation — aborts
// the whole batch and is the third result.
func (e *Engine) SearchBatchQueries(ctx context.Context, refs []*dataset.Set, qs []*core.Query) ([][]core.Match, []error, error) {
	if len(refs) == 0 {
		return nil, nil, nil
	}
	if qs != nil && len(qs) != len(refs) {
		return nil, nil, errors.New("shard: per-item queries must align with refs")
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, nil, err
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	workers := Workers(e.eng.Options().Concurrency, len(refs))
	searchers := make([]*core.Searcher, workers)
	for w := range searchers {
		searchers[w] = e.eng.NewSearcher()
	}
	defer func() {
		for _, sr := range searchers {
			sr.Close()
		}
	}()

	out := make([][]core.Match, len(refs))
	itemErrs := make([]error, len(refs)) // each item writes its own slot
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
		ms, err := searchers[w].SearchQuery(ctx, refs[qi], -1, q)
		if errors.Is(err, core.ErrPostingDecode) {
			itemErrs[qi] = err
			return nil
		}
		if err != nil {
			return err
		}
		sortMatches(ms)
		out[qi] = ms
		if timed {
			q.Stats.AddElapsed(time.Since(start))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if errors.Join(itemErrs...) == nil {
		itemErrs = nil
	}
	return out, itemErrs, nil
}
