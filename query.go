package silkmoth

import (
	"context"
	"fmt"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
)

// Every search method below is a wrapper over search, the engine's one query
// path: a search is a batch of one item, top-k is a search with WithK, and an
// explained search is a search with WithExplain.

// SearchContext returns every set in the engine's collection related to ref,
// sorted by descending relatedness (ties by index). This is the paper's
// RELATED SET SEARCH (Problem 2). Options customize the single query:
// WithK truncates to the top k, WithScheme pins the signature scheme,
// WithDelta overrides δ, WithExplain captures the query's pruning funnel,
// and the filter toggles stress individual stages. The pass aborts and
// returns ctx.Err() when ctx is done; a pass that proves long spreads its
// set-id chunks over up to Engine.Shards goroutines.
func (e *Engine) SearchContext(ctx context.Context, ref Set, opts ...QueryOption) ([]Match, error) {
	res, err := e.search(ctx, []BatchQuery{{Set: ref, Options: opts}})
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		return nil, err
	}
	return res[0].Matches, nil
}

// SearchTopKContext returns the k most related sets to ref among those whose
// relatedness reaches Delta, ordered by descending relatedness. It is
// exactly SearchContext with a trailing WithK(k), so options compose the
// same way (the k argument wins over any WithK in opts). A k below 1 asks
// for nothing and gets nothing.
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

// SearchBatchQueriesContext answers many searches in one call, each
// BatchQuery with its own options, so one batch can mix pinned and automatic
// signature schemes, per-item k and δ, and per-item explain captures.
// Results align with queries, and each is exactly what SearchContext with
// the same options returns for its item. The batch is tokenized in one pass,
// and its items run concurrently on up to Config.Concurrency workers, each
// item's pass at the width those workers leave idle: Config.Shards / workers
// goroutines, at least one (a batch of one runs like SearchContext, at the
// engine's width). The first cancelled item aborts the remaining ones.
func (e *Engine) SearchBatchQueriesContext(ctx context.Context, queries []BatchQuery) ([]Result, error) {
	return e.search(ctx, queries)
}

// search runs queries as one batch: it compiles each item's options, takes
// the read lock, tokenizes the batch once, runs it through core, and converts
// the matches and fills the explains. An invalid option fails the call,
// naming the item in a batch of more than one; an item that read a corrupt
// posting container fails alone (Result.Err).
func (e *Engine) search(ctx context.Context, queries []BatchQuery) ([]Result, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	qos := make([]queryOptions, len(queries))
	raws := make([]dataset.RawSet, len(queries))
	var qs []*core.Query
	for i := range queries {
		if err := qos[i].compile(queries[i].Options); err != nil {
			if len(queries) > 1 {
				err = fmt.Errorf("silkmoth: batch item %d: %w", i, err)
			}
			return nil, err
		}
		raws[i] = dataset.RawSet{Name: queries[i].Set.Name, Elements: queries[i].Set.Elements}
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
	scratch, qc := e.tokenizeQuery(raws)
	defer queryScratchPool.Put(scratch)
	per, err := e.eng.SearchBatchQueries(ctx, qc, qs, e.width)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(per))
	for i, r := range per {
		out[i].Matches = e.toMatches(r.Matches)
		out[i].Err = r.Err
		if qos[i].explain != nil {
			qos[i].finishExplain(qs[i], qs[i].Stats.Elapsed())
			out[i].Explain = qos[i].explain
		}
	}
	return out, nil
}

// toMatches rewrites core matches into the public form, resolving names
// from the engine's collection. The order is core's: canonical (descending
// relatedness, ties by ascending index). Callers must hold at least the read
// lock.
func (e *Engine) toMatches(ms []core.Match) []Match {
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{
			Index:         m.Set,
			Name:          e.coll.Sets[m.Set].Name,
			Relatedness:   m.Relatedness,
			MatchingScore: m.Score,
		}
	}
	return out
}
