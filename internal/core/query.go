package core

import (
	"context"
	"fmt"

	"silkmoth/internal/dataset"
	"silkmoth/internal/signature"
)

// Toggle is a tri-state boolean for per-query feature overrides: the zero
// value inherits the engine's configuration, ToggleOn forces the feature on
// and ToggleOff forces it off (subject to the same soundness normalization
// engine construction applies).
type Toggle int8

const (
	// ToggleInherit keeps the engine's configured value.
	ToggleInherit Toggle = 0
	// ToggleOn forces the feature on for this query.
	ToggleOn Toggle = 1
	// ToggleOff forces the feature off for this query.
	ToggleOff Toggle = -1
)

// apply resolves the toggle against the engine's configured value.
func (t Toggle) apply(configured bool) bool {
	switch t {
	case ToggleOn:
		return true
	case ToggleOff:
		return false
	default:
		return configured
	}
}

// Query carries one query's overrides and observation hooks through every
// engine path — serial passes, passes run in chunks, batch fan-out. A nil
// *Query (or the zero value) reproduces the engine's configured behavior
// exactly. Queries are read-only during execution and may be shared across
// the concurrent passes of one logical query (each reference of a
// discovery); the Stats capture is internally synchronized.
type Query struct {
	// Scheme, when SchemeSet, overrides the engine's signature scheme for
	// this query. Schemes only decide how the index is probed, so results
	// are identical to the engine's configured scheme; the override trades
	// generation work against probe cost per query.
	Scheme    signature.Kind
	SchemeSet bool
	// Delta, when > 0, overrides the relatedness threshold δ for this
	// query. Unlike Scheme it changes results: matches are exactly those
	// of an engine built with the overridden δ.
	Delta float64
	// CheckFilter, NNFilter, and Reduction override the engine's filter
	// and verification-reduction configuration. The engine's soundness
	// normalization still applies: NNFilter implies CheckFilter, and the
	// reduction only engages where its metric requirements hold.
	CheckFilter Toggle
	NNFilter    Toggle
	Reduction   Toggle
	// Stats, when non-nil, captures this query's own per-stage funnel in
	// addition to the engine's cumulative counters: every pass the query
	// fans out into folds its record in as it ends, so one Capture may
	// absorb a whole discovery or batch.
	Stats *Capture
}

// Validate checks the override values against the engine-independent
// domains: δ ∈ (0, 1] when set, and a known signature scheme.
func (q *Query) Validate() error {
	if q == nil {
		return nil
	}
	if q.Delta != 0 && !(q.Delta > 0 && q.Delta <= 1) { // NaN fails, as in Options.normalize
		return fmt.Errorf("core: query delta must be in (0, 1], got %v", q.Delta)
	}
	if q.SchemeSet {
		switch q.Scheme {
		case signature.Weighted, signature.CombUnweighted, signature.Skyline,
			signature.Dichotomy, signature.Auto:
		default:
			return fmt.Errorf("core: unknown query signature scheme %v", q.Scheme)
		}
	}
	return nil
}

// queryOptions resolves the engine's options under q's overrides into the
// effective per-pass options, applying the same normalization engine
// construction does: the NN filter implies the check filter, and the §5.3
// reduction stays off wherever its metric requirements fail.
func (e *Engine) queryOptions(q *Query) Options {
	o := e.opts
	if q == nil {
		return o
	}
	if q.SchemeSet {
		o.Scheme = q.Scheme
	}
	if q.Delta > 0 {
		o.Delta = q.Delta
	}
	o.CheckFilter = q.CheckFilter.apply(o.CheckFilter)
	o.NNFilter = q.NNFilter.apply(o.NNFilter)
	o.Reduction = q.Reduction.apply(o.Reduction)
	if o.NNFilter {
		o.CheckFilter = true // the NN filter consumes check-filter state
	}
	if o.Reduction && (o.Alpha != 0 || (o.Sim != Jaccard && o.Sim != Eds)) {
		o.Reduction = false // 1-φ_α must be a metric (§6.5)
	}
	return o
}

// SearchQueryContext is SearchContext with per-query overrides and stats
// capture: q's scheme/δ/filter overrides shape this pass only, and q.Stats
// (when non-nil) receives the pass's funnel. A nil q is exactly
// SearchContext.
func (e *Engine) SearchQueryContext(ctx context.Context, r *dataset.Set, q *Query) ([]Match, error) {
	return e.SearchSplitContext(ctx, r, q, 1, 0)
}

// SearchSplitContext is SearchQueryContext on at most width goroutines,
// keeping the best k matches when k > 0 (a bounded heap, never a full sort
// of them) and every match otherwise. The signature is generated once —
// under scheme Auto that is one choice for the whole query — and a pass that
// runs long cuts its candidate work into set-id chunks that the caller and
// up to width−1 helpers claim, each collecting, refining and verifying its
// own candidates through posting lists cut to the chunk (see plan.run). The
// matches are the one-goroutine pass's, in canonical order (descending
// relatedness, ties by ascending index), and the query counts one pass,
// which all the chunks' work is charged to.
func (e *Engine) SearchSplitContext(ctx context.Context, r *dataset.Set, q *Query, width, k int) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sr := e.NewSearcher()
	ms, err := e.searchPass(ctx, r, -1, sr.w, width, q)
	sr.Close()
	if err != nil {
		return nil, err
	}
	if k > 0 {
		return localTopK(ms, k), nil
	}
	sortMatches(ms)
	return ms, nil
}

// SearchQuery runs one search pass for r under q's overrides, excluding
// candidate sets with collection index ≤ skip. It is Searcher.Search with
// per-query overrides; a nil q is exactly Search.
func (s *Searcher) SearchQuery(ctx context.Context, r *dataset.Set, skip int, q *Query) ([]Match, error) {
	return s.e.searchPass(ctx, r, skip, s.w, 1, q)
}
