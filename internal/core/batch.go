package core

import (
	"context"
	"errors"
	"time"

	"silkmoth/internal/dataset"
)

// SearchBatchQueries answers one search per reference set, each under its own
// query (qs, when non-nil, aligns with refs; a nil item inherits the engine's
// configuration) and each in canonical order, cut to its query's best K.
//
// How the items run follows from how many there are. A lone item runs its
// pass at width (SearchSplitContext): a pass that proves long spreads over
// helpers. More items fan out across Concurrency workers; each worker owns one
// reusable Searcher and runs each of its items as one unsplit pass, as
// Discover does, so batch parallelism stays bounded at Concurrency instead of
// compounding with a search's helpers, and the collector scratch amortizes
// across the batch. Either way each item's answer is the one searching it
// alone returns, and an item whose query carries a Stats capture gets the
// wall time measured around its pass (AddElapsed).
//
// An item whose pass read a corrupt posting container (ErrPostingDecode)
// fails alone: it has no matches, its error is in the second result at its
// position, and the batch goes on. The second result is nil when no item
// failed. Any other error — an invalid query, cancellation — aborts the whole
// batch and is the third result.
func (e *Engine) SearchBatchQueries(ctx context.Context, refs []dataset.Set, qs []*Query, width int) ([][]Match, []error, error) {
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
	if len(refs) == 1 {
		q := itemQuery(qs, 0)
		start := time.Now()
		ms, err := e.SearchSplitContext(ctx, &refs[0], q, width)
		if errors.Is(err, ErrPostingDecode) {
			return out, []error{err}, nil
		}
		if err != nil {
			return nil, nil, err
		}
		out[0] = ms
		timeItem(q, start)
		return out, nil, nil
	}
	itemErrs := make([]error, len(refs)) // each item writes its own slot
	err := e.fanOut(ctx, len(refs), func(ctx context.Context, sr *Searcher, _, qi int) error {
		q := itemQuery(qs, qi)
		start := time.Now()
		ms, err := sr.SearchQuery(ctx, &refs[qi], -1, q)
		if errors.Is(err, ErrPostingDecode) {
			itemErrs[qi] = err
			return nil
		}
		if err != nil {
			return err
		}
		out[qi] = rank(ms, q)
		timeItem(q, start)
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

// itemQuery returns item i's query, nil when the batch carries none.
func itemQuery(qs []*Query, i int) *Query {
	if qs == nil {
		return nil
	}
	return qs[i]
}

// timeItem adds the wall time since start to a timed item's capture.
func timeItem(q *Query, start time.Time) {
	if q != nil && q.Stats != nil {
		q.Stats.AddElapsed(time.Since(start))
	}
}
