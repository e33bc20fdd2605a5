package core

import (
	"context"
	"errors"
	"time"

	"silkmoth/internal/dataset"
)

// SearchBatchQueries answers one search per reference set. Queries fan out
// across Concurrency workers; each worker owns one reusable Searcher and runs
// one whole-collection pass per reference, verifying serially (as in
// Discover), so batch parallelism stays bounded at Concurrency instead of
// compounding with a search's helpers, and the collector scratch amortizes
// across the whole batch. Results are positionally aligned with refs, each
// in canonical order, identical to searching each ref alone.
//
// qs, when non-nil, must align positionally with refs, and each item's pass
// runs under its own query (nil items inherit the engine's configuration).
// An item whose query carries a Stats capture also gets its wall time
// accumulated there (AddElapsed), measured around the item's pass.
//
// An item whose pass read a corrupt posting container (ErrPostingDecode)
// fails alone: it has no matches, its error is in the second result at its
// position, and the batch goes on. The second result is nil when no item
// failed. Any other error — cancellation — aborts the whole batch and is the
// third result.
func (e *Engine) SearchBatchQueries(ctx context.Context, refs []*dataset.Set, qs []*Query) ([][]Match, []error, error) {
	if len(refs) == 0 {
		return nil, nil, nil
	}
	if qs != nil && len(qs) != len(refs) {
		return nil, nil, errors.New("core: per-item queries must align with refs")
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, nil, err
		}
	}
	out := make([][]Match, len(refs))
	itemErrs := make([]error, len(refs)) // each item writes its own slot
	err := e.fanOut(ctx, len(refs), func(ctx context.Context, sr *Searcher, _, qi int) error {
		var q *Query
		if qs != nil {
			q = qs[qi]
		}
		var start time.Time
		timed := q != nil && q.Stats != nil
		if timed {
			start = time.Now()
		}
		ms, err := sr.SearchQuery(ctx, refs[qi], -1, q)
		if errors.Is(err, ErrPostingDecode) {
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
