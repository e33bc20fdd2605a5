package silkmoth

import (
	"context"
	"errors"
	"fmt"
	"time"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
)

// SearchBatch answers one related-set search per reference set in a
// single call. The whole batch is tokenized in one pass — amortizing
// dictionary interning across queries — and the searches run concurrently,
// bounded by Config.Concurrency (each worker runs one unsplit pass per
// reference, so batch parallelism never compounds with a search's helpers).
// Results are
// positionally aligned with refs, each sorted exactly as Search sorts.
// Options apply to every item of the batch (a WithExplain capture sums the
// items' funnels); for per-item options use SearchBatchQueries.
func (e *Engine) SearchBatch(refs []Set, opts ...QueryOption) ([][]Match, error) {
	return e.SearchBatchContext(context.Background(), refs, opts...)
}

// SearchBatchContext is SearchBatch with cancellation: the first failed or
// cancelled query aborts the remaining ones.
func (e *Engine) SearchBatchContext(ctx context.Context, refs []Set, opts ...QueryOption) ([][]Match, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	qo, err := compileOptions(opts)
	if err != nil {
		return nil, err
	}
	q := qo.coreQuery()
	var qs []*core.Query
	if q != nil {
		// One shared query (and stats capture) for the whole batch: the
		// overrides are uniform and the explain aggregates across items.
		qs = make([]*core.Query, len(refs))
		for i := range qs {
			qs[i] = q
		}
	}
	var start time.Time
	if qo.explain != nil {
		start = time.Now()
	}
	// The read lock must span result conversion too: toMatches reads
	// e.coll, which a concurrent Add/Delete/Compact mutates.
	e.mu.RLock()
	defer e.mu.RUnlock()
	per, itemErrs, err := e.searchBatchCore(ctx, refs, qs)
	if err == nil {
		err = errors.Join(itemErrs...)
	}
	if err != nil {
		return nil, err
	}
	out := make([][]Match, len(per))
	for i, ms := range per {
		if qo.hasK && len(ms) > qo.k {
			ms = ms[:qo.k]
		}
		out[i] = e.toMatches(ms)
	}
	qo.finishExplain(q, time.Since(start))
	return out, nil
}

// SearchBatchQueries is the per-item form of SearchBatch: each BatchQuery
// carries its own option list, so one batch can mix pinned and automatic
// signature schemes, per-item k and δ, and per-item explain captures —
// results are exactly what Search with the same options returns for each
// item. The batch still tokenizes in one pass and shares the engine's
// worker fan-out.
func (e *Engine) SearchBatchQueries(queries []BatchQuery) ([]Result, error) {
	return e.SearchBatchQueriesContext(context.Background(), queries)
}

// SearchBatchQueriesContext is SearchBatchQueries with cancellation: the
// first failed or cancelled item aborts the remaining ones.
func (e *Engine) SearchBatchQueriesContext(ctx context.Context, queries []BatchQuery) ([]Result, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	refs := make([]Set, len(queries))
	qos := make([]queryOptions, len(queries))
	var qs []*core.Query
	for i := range queries {
		refs[i] = queries[i].Set
		qo, err := compileOptions(queries[i].Options)
		if err != nil {
			return nil, fmt.Errorf("silkmoth: batch item %d: %w", i, err)
		}
		qos[i] = qo
		if q := qos[i].coreQuery(); q != nil {
			if qs == nil {
				qs = make([]*core.Query, len(queries))
			}
			qs[i] = q
		}
	}
	// The read lock must span result conversion too: toMatches reads
	// e.coll, which a concurrent Add/Delete/Compact mutates.
	e.mu.RLock()
	defer e.mu.RUnlock()
	per, itemErrs, err := e.searchBatchCore(ctx, refs, qs)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(per))
	for i, ms := range per {
		if qos[i].hasK && len(ms) > qos[i].k {
			ms = ms[:qos[i].k]
		}
		out[i] = Result{Matches: e.toMatches(ms)}
		if itemErrs != nil {
			out[i].Err = itemErrs[i]
		}
		if qos[i].explain != nil {
			// Batch items time themselves (the fan-out workers measure
			// around each item's passes), so the capture's own elapsed
			// stands in for the single-query wall clock.
			qos[i].finishExplain(qs[i], -1)
			out[i].Explain = qos[i].explain
		}
	}
	return out, nil
}

// searchBatchCore tokenizes the batch and fans it out: queries run
// concurrently on up to Config.Concurrency workers, each item's pass serial
// within its worker. qs, when non-nil, aligns
// per-item queries with refs. Callers must hold at least the read lock —
// and keep holding it while converting the returned core matches, whose
// indices are only meaningful against the collection they were computed
// on. The second result is core.Engine.SearchBatchQueries': per-item errors,
// nil when no item failed.
func (e *Engine) searchBatchCore(ctx context.Context, refs []Set, qs []*core.Query) ([][]core.Match, []error, error) {
	qc, release := e.tokenizeQuery(refs)
	defer release()
	rs := make([]*dataset.Set, len(qc.Sets))
	for i := range qc.Sets {
		rs[i] = &qc.Sets[i]
	}
	return e.eng.SearchBatchQueries(ctx, rs, qs)
}
