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
	// K, when > 0, keeps only the search's best K matches, picked by a
	// bounded heap instead of a sort of every match. Discovery ignores it.
	K int
	// Stats, when non-nil, captures this query's own per-stage funnel in
	// addition to the engine's cumulative counters: every pass the query
	// fans out into folds its record in as it ends, so one Capture may
	// absorb a whole discovery or batch.
	Stats *Capture
}

// Validate checks the override values against the engine-independent
// domains: δ ∈ (0, 1] when set, K ≥ 0, and a known signature scheme.
func (q *Query) Validate() error {
	if q == nil {
		return nil
	}
	if q.Delta != 0 && !(q.Delta > 0 && q.Delta <= 1) { // NaN fails, as in Options.normalize
		return fmt.Errorf("core: query delta must be in (0, 1], got %v", q.Delta)
	}
	if q.K < 0 {
		return fmt.Errorf("core: query k must be >= 0, got %d", q.K)
	}
	if q.SchemeSet {
		return checkScheme(q.Scheme)
	}
	return nil
}

// queryOptions resolves the engine's options under q's overrides into the
// effective per-pass options, made sound by the same rules engine
// construction applies (Options.sound).
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
	o.sound()
	return o
}

// SearchSplitContext runs one related-set search pass for r on at most width
// goroutines: q's scheme/δ/filter overrides and K shape this pass only,
// q.Stats (when non-nil) receives its funnel, and a nil q is the engine's
// configuration. The signature is generated once — under scheme Auto that is
// one choice for the whole query — and a pass that runs long cuts its
// candidate work into set-id chunks that the caller and up to width−1
// helpers claim, each collecting, refining and verifying its own candidates
// through posting lists cut to the chunk (see plan.run). The matches are the
// one-goroutine pass's, in canonical order (descending relatedness, ties by
// ascending index), and the query counts one pass, which all the chunks'
// work is charged to.
func (e *Engine) SearchSplitContext(ctx context.Context, r *dataset.Set, q *Query, width int) ([]Match, error) {
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
	return rank(ms, q), nil
}

// rank puts a search's matches in canonical order, keeping q's best K when
// it asks for fewer than all.
//
//silkmoth:hotpath
func rank(ms []Match, q *Query) []Match {
	if q != nil && q.K > 0 {
		return localTopK(ms, q.K)
	}
	sortMatches(ms)
	return ms
}
