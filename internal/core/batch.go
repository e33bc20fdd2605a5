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

// SearchBatchQueries answers one search per set of refs, each under its own
// query (qs, when non-nil, aligns with refs.Sets; a nil item inherits the
// engine's configuration) and each in canonical order, cut to its query's
// best K. refs shares the engine collection's dictionary — a QueryScratch
// build, or the engine's own collection — and its element table gives the
// references' keys to the §5.3 reduction.
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
func (e *Engine) SearchBatchQueries(ctx context.Context, refs *dataset.Collection, qs []*Query, width int) ([]BatchResult, error) {
	n := len(refs.Sets)
	if n == 0 {
		return nil, nil
	}
	if qs != nil && len(qs) != n {
		return nil, errors.New("core: per-item queries must align with refs")
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	job := batchJob{e: e, refs: refs, qs: qs, out: make([]BatchResult, n)}
	if err := fanOut(e, ctx, n, width, job); err != nil {
		return nil, err
	}
	return job.out, nil
}

// batchJob is a batch's fan-out: each item writes its own slot of out.
type batchJob struct {
	e    *Engine
	refs *dataset.Collection
	qs   []*Query
	out  []BatchResult
}

func (j batchJob) pass(ctx context.Context, sr *Searcher, _, i, width int) error {
	var q *Query
	if j.qs != nil {
		q = j.qs[i]
	}
	start := time.Now()
	ms, err := j.e.searchPass(ctx, &j.refs.Sets[i], j.refs.Dir.Set(int32(i)), -1, sr.w, width, q)
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
