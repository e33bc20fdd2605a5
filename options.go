package silkmoth

import (
	"fmt"
	"time"

	"silkmoth/internal/core"
)

// QueryOption customizes a single query without touching the engine's
// configuration. Every query method accepts a list of options — a trailing
// one on SearchContext, SearchTopKContext, DiscoverContext and
// DiscoverAgainstContext, one per item in a BatchQuery — and a call with no options behaves
// exactly as the engine was configured. Options apply in order, so a later
// option overrides an earlier one of the same kind.
//
// Overrides come in two flavors. WithScheme only changes how the inverted
// index is probed — results are identical for every valid scheme, so
// pinning a scheme is a performance and auditing knob. WithDelta and the
// filter toggles change or stress the result set itself: WithDelta(d)
// returns exactly what an engine built with Delta = d would, and disabling
// filters must never change results (the exactness guarantee), only cost.
type QueryOption func(*queryOptions) error

// queryOptions is the compiled form of a query's option list: the core
// engine's per-query form, which each option writes directly, and the
// explain destination.
type queryOptions struct {
	q       core.Query
	explain *Explain
}

// WithK truncates the query's matches to the k most related (k ≥ 1), like
// SearchTopKContext. On every search path — a lone search, split or not,
// and each item of a batch — the best k are kept in a bounded heap instead
// of a sort of every match. Discovery ignores it.
func WithK(k int) QueryOption {
	return func(qo *queryOptions) error {
		if k < 1 {
			return fmt.Errorf("silkmoth: WithK requires k >= 1, got %d", k)
		}
		qo.q.K = k
		return nil
	}
}

// WithScheme pins this query's signature scheme, overriding the engine's
// (including SchemeAuto's per-query cost-based choice). Schemes only
// decide how much of the index is probed, so matches are identical under
// every scheme; pair it with WithExplain to audit the probe cost of each.
func WithScheme(s Scheme) QueryOption {
	return func(qo *queryOptions) error {
		kind, err := s.kind()
		if err != nil {
			return err
		}
		qo.q.Scheme, qo.q.SchemeSet = kind, true
		return nil
	}
}

// WithDelta overrides the relatedness threshold δ ∈ (0, 1] for this query.
// Matches are exactly those of an engine built with Config.Delta = d.
func WithDelta(d float64) QueryOption {
	return func(qo *queryOptions) error {
		if !(d > 0 && d <= 1) { // NaN fails too
			return fmt.Errorf("silkmoth: WithDelta requires δ in (0, 1], got %v", d)
		}
		qo.q.Delta = d
		return nil
	}
}

// WithExplain captures how the query executed into *dst: the concrete
// signature scheme that probed the index, the per-stage pruning funnel
// (signature tokens → candidates → check filter → NN filter → exact
// verification), and wall time. dst is written once, when the query
// returns successfully. Capture is cheap — a handful of atomic adds per
// stage — but explained server requests bypass the result cache.
func WithExplain(dst *Explain) QueryOption {
	return func(qo *queryOptions) error {
		if dst == nil {
			return fmt.Errorf("silkmoth: WithExplain requires a non-nil destination")
		}
		qo.explain = dst
		return nil
	}
}

// WithCheckFilter(false) turns the check filter (§5.1) off for this query;
// true keeps it on, which every engine does by default. The NN filter
// consumes the check filter's state and so implies it: WithCheckFilter(false)
// alone changes nothing, and only together with WithNNFilter(false) does it
// stop the check filter pruning. Disabling a filter never changes matches —
// only how many candidates reach exact verification.
func WithCheckFilter(enabled bool) QueryOption {
	return func(qo *queryOptions) error {
		qo.q.NoCheckFilter = !enabled
		return nil
	}
}

// WithNNFilter(false) turns the nearest-neighbor filter (§5.2) off for this
// query; true keeps it on, which every engine does by default. Keeping it on
// keeps the check filter on too, whose state it consumes.
func WithNNFilter(enabled bool) QueryOption {
	return func(qo *queryOptions) error {
		qo.q.NoNNFilter = !enabled
		return nil
	}
}

// compile folds an option list into qo, which starts zero, validating each
// option's arguments.
func (qo *queryOptions) compile(opts []QueryOption) error {
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(qo); err != nil {
			return err
		}
	}
	return nil
}

// coreQuery returns the compiled query, with a stats capture when explain
// was requested. It returns nil when nothing was overridden or captured,
// which keeps option-less queries on the exact pre-options code path.
func (qo *queryOptions) coreQuery() *core.Query {
	if qo.q == (core.Query{}) && qo.explain == nil {
		return nil
	}
	if qo.explain != nil {
		qo.q.Stats = &core.Capture{}
	}
	return &qo.q
}

// finishExplain writes q's capture, with the query's wall time, into the
// caller's Explain destination.
func (qo *queryOptions) finishExplain(q *core.Query, elapsed time.Duration) {
	if qo.explain == nil {
		return
	}
	*qo.explain = explainFromPass(q.Stats.Funnel(), elapsed)
}

// Explain describes how one query executed: which concrete signature
// scheme probed the inverted index, how many sets each pipeline stage let
// through, and how long the query took. Capture one with WithExplain;
// serving layers expose the same shape via /v1/explain.
type Explain struct {
	// Scheme is the concrete signature scheme that probed the index —
	// the per-query resolution under SchemeAuto. When the query fanned
	// out into passes that chose differently (batch references,
	// discovery's references) it is "mixed" and Schemes has the split; a
	// query with no valid signature reports "full-scan".
	Scheme string
	// Schemes counts signatured passes by concrete scheme name. Nil when
	// no pass generated a signature.
	Schemes map[string]int64
	// Passes counts the search passes the query fanned out into (one per
	// reference, at every shard count).
	Passes int64
	// Funnel is the query's pruning funnel over all of Passes.
	Funnel
	// Elapsed is the query's wall time by one rule for every search, alone
	// or in a batch: the time the engine measures around its pass, from the
	// signature to its sorted matches, waiting for helpers included;
	// tokenization and waiting for the lock are not. A discovery's is the
	// whole call's.
	Elapsed time.Duration
	// Stages splits the query's pass time by pipeline stage — where inside
	// the funnel the wall time went. Explained queries time every pass, so
	// the four durations sum over all of Passes. They are the caller's
	// timeline: they total less than Elapsed, which also covers setting the
	// pass up, merging, sorting and waiting for helpers.
	Stages StageTimes
	// HelperTime is the busy time of the helpers that ran set-id chunks of
	// the query's passes on other goroutines (Config.Shards). Stages leaves
	// it out; it overlaps Elapsed, since the caller waits for the helpers.
	HelperTime time.Duration
}

// explainFromPass converts a query's captured funnel into the public shape.
func explainFromPass(ps core.Funnel, elapsed time.Duration) Explain {
	ex := Explain{
		Passes:     ps.SearchPasses,
		Funnel:     funnelOf(ps),
		Elapsed:    elapsed,
		Stages:     stageTimes(ps),
		HelperTime: time.Duration(ps.HelperNanos),
	}
	type schemeCount struct {
		name  string
		count int64
	}
	counts := []schemeCount{
		{SchemeWeighted.String(), ps.SchemeWeighted},
		{SchemeSkyline.String(), ps.SchemeSkyline},
		{SchemeDichotomy.String(), ps.SchemeDichotomy},
		{SchemeCombUnweighted.String(), ps.SchemeCombUnweighted},
	}
	var total int64
	var last string
	distinct := 0
	for _, sc := range counts {
		if sc.count == 0 {
			continue
		}
		if ex.Schemes == nil {
			ex.Schemes = make(map[string]int64, 2)
		}
		ex.Schemes[sc.name] = sc.count
		total += sc.count
		last = sc.name
		distinct++
	}
	switch {
	case distinct == 1 && ex.FullScans == 0:
		ex.Scheme = last
	case total == 0 && ex.FullScans > 0:
		ex.Scheme = "full-scan"
	case total > 0:
		ex.Scheme = "mixed"
	}
	return ex
}

// Result is a query's full outcome: its matches plus, when requested, the
// explain metadata describing how they were computed.
type Result struct {
	// Matches is the query's answer, sorted by descending relatedness
	// (ties by ascending collection index).
	Matches []Match
	// Explain is non-nil when the query captured its execution (a
	// WithExplain option).
	Explain *Explain
	// Err is ErrPostingDecode for a query that read a corrupt posting
	// container, and nil otherwise. Such a query has no matches; the rest of
	// its batch is unaffected. SearchContext and SearchTopKContext return it
	// as their error.
	Err error
}

// BatchQuery is one item of a per-item batch: a reference set plus the
// options shaping its query. SearchBatchQueriesContext runs many of them in
// one engine pass, so mixed workloads can pin schemes, adjust k or δ, and
// capture explains item by item.
type BatchQuery struct {
	Set Set
	// Options shape this item alone. WithExplain destinations must be
	// distinct per item, or later items overwrite earlier captures.
	Options []QueryOption
}
