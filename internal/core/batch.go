package core

import (
	"context"
	"errors"
	"time"

	"silkmoth/internal/dataset"
)

// BatchResult is one batch item's answer: its matches, or the error that
// failed it alone.
type BatchResult struct {
	Matches []Match
	Err     error
}

// SearchBatchQueries answers one search per reference set, each under its own
// query (qs, when non-nil, aligns with refs; a nil item inherits the engine's
// configuration) and each in canonical order, cut to its query's best K.
//
// The items run as one fan-out (fanOut): up to Concurrency workers, each
// with one reusable Searcher whose collector scratch amortizes across the
// batch, run the items' passes at the width the fan-out leaves idle. A lone
// item runs on the caller's goroutine at the full width, as a search; a pass
// that proves long spreads over helpers. Each item's answer is the one
// searching it alone returns, and an item whose query carries a Stats
// capture gets the wall time measured around its pass (AddElapsed).
//
// An item whose pass read a corrupt posting container fails alone: it has
// no matches and ErrPostingDecode in its Err, and the batch goes on. Any
// other error — an invalid query, cancellation — aborts the whole batch and
// is the second result.
func (e *Engine) SearchBatchQueries(ctx context.Context, refs []dataset.Set, qs []*Query, width int) ([]BatchResult, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	if qs != nil && len(qs) != len(refs) {
		return nil, errors.New("core: per-item queries must align with refs")
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	job := batchJob{e: e, refs: refs, qs: qs, out: make([]BatchResult, len(refs))}
	if err := fanOut(e, ctx, len(refs), width, job); err != nil {
		return nil, err
	}
	return job.out, nil
}

// batchJob is a batch's fan-out: each item writes its own slot of out.
type batchJob struct {
	e    *Engine
	refs []dataset.Set
	qs   []*Query
	out  []BatchResult
}

func (j batchJob) pass(ctx context.Context, sr *Searcher, _, i, width int) error {
	var q *Query
	if j.qs != nil {
		q = j.qs[i]
	}
	start := time.Now()
	ms, err := j.e.searchPass(ctx, &j.refs[i], -1, sr.w, width, q)
	if errors.Is(err, ErrPostingDecode) {
		j.out[i].Err = err
		return nil
	}
	if err != nil {
		return err
	}
	j.out[i].Matches = rank(ms, q)
	if q != nil && q.Stats != nil {
		q.Stats.AddElapsed(time.Since(start))
	}
	return nil
}
