package core

import (
	"fmt"
	"sync"
	"time"
)

// Funnel is the one record of the pruning funnel: how many sets each
// stage of a search pass let through — signature generation (size and
// chosen scheme), candidate selection, the check filter, the nearest-
// neighbor filter, exact verification — and where the pass's wall time
// went. The same type is a pass's private record, a worker's running
// total, an engine's cumulative counters and a query's capture; see the
// package comment's "Counters" section for who charges and who folds it.
type Funnel struct {
	// SearchPasses is the number of search passes run (for a query's
	// capture: one per reference; a pass run in chunks counts once).
	SearchPasses int64
	// FullScans counts passes that fell back to comparing every set
	// because no valid signature existed (edit similarity, §7.3).
	FullScans int64
	// SigTokens is the total number of per-element signature tokens
	// generated across signatured passes — the probe volume drivers.
	SigTokens int64
	// Candidates counts sets matched by signature tokens, before any
	// refinement (the signature scheme's selectivity, Figure 5's driver).
	Candidates int64
	// AfterCheck counts candidates surviving the check filter;
	// CheckPruned counts the ones it rejected (Candidates = AfterCheck +
	// CheckPruned on check-filtered passes).
	AfterCheck  int64
	CheckPruned int64
	// AfterNN counts candidates surviving the nearest-neighbor filter
	// (equal to AfterCheck when the filter is disabled); NNPruned counts
	// the refinement's rejections.
	AfterNN  int64
	NNPruned int64
	// Verified counts maximum-matching computations.
	Verified int64
	// SimEvals counts φ_α kernel calls made by the check and nearest-
	// neighbor filters, SimMemoHits the requests their per-pass memo
	// answered without one, SimCounted the pairs either filter scored
	// exactly from an overlap count instead (token-based similarities), and
	// SimBounded the pairs the check filter dropped because a bound read
	// off the index — the signature tokens shared and the two sizes, or the
	// two lengths under the edit similarities — kept them below the
	// element's bound: no memo probe, no kernel call, no element load.
	// Their sum is the number of ⟨reference element, candidate element⟩
	// pairs the filters looked at — distinct pairs under the token-based
	// similarities, one per posting in the check filter under the edit
	// similarities (filter.SimCounts). All four repeat exactly for a given
	// corpus and query mix (verification's cells are not included).
	SimEvals    int64
	SimMemoHits int64
	SimCounted  int64
	SimBounded  int64
	// Scheme* count signatured passes by the concrete scheme that
	// generated the probe signature. Under Scheme Auto they expose the
	// per-query cost-based selection, one per pass however it splits;
	// under a fixed scheme exactly one of them grows.
	SchemeWeighted       int64
	SchemeCombUnweighted int64
	SchemeSkyline        int64
	SchemeDichotomy      int64
	// TimedPasses counts the search passes whose stages were wall-timed
	// (sampled per Options.StageSample, plus every pass of a query with a
	// capture); the *Nanos fields hold those passes' summed per-stage
	// durations.
	TimedPasses  int64
	SigNanos     int64
	CollectNanos int64
	RefineNanos  int64
	VerifyNanos  int64
	// SplitPasses counts the search passes whose first chunk ran long
	// enough to start helpers, HelperChunks the set-id chunks helpers ran
	// for them, and HelperNanos the helpers' busy time: the work a pass
	// did off the caller's goroutine, which the stage times above (the
	// caller's timeline) leave out.
	SplitPasses  int64
	HelperChunks int64
	HelperNanos  int64
}

// Add folds g into f. Besides the declaration it is the only list of the
// fields in internal/core: a new counter is one field, one line here, and
// the line that charges it.
func (f *Funnel) Add(g *Funnel) {
	f.SearchPasses += g.SearchPasses
	f.FullScans += g.FullScans
	f.SigTokens += g.SigTokens
	f.Candidates += g.Candidates
	f.AfterCheck += g.AfterCheck
	f.CheckPruned += g.CheckPruned
	f.AfterNN += g.AfterNN
	f.NNPruned += g.NNPruned
	f.Verified += g.Verified
	f.SimEvals += g.SimEvals
	f.SimMemoHits += g.SimMemoHits
	f.SimCounted += g.SimCounted
	f.SimBounded += g.SimBounded
	f.SchemeWeighted += g.SchemeWeighted
	f.SchemeCombUnweighted += g.SchemeCombUnweighted
	f.SchemeSkyline += g.SchemeSkyline
	f.SchemeDichotomy += g.SchemeDichotomy
	f.TimedPasses += g.TimedPasses
	f.SigNanos += g.SigNanos
	f.CollectNanos += g.CollectNanos
	f.RefineNanos += g.RefineNanos
	f.VerifyNanos += g.VerifyNanos
	f.SplitPasses += g.SplitPasses
	f.HelperChunks += g.HelperChunks
	f.HelperNanos += g.HelperNanos
}

// String renders the funnel as one report line.
func (f Funnel) String() string {
	return fmt.Sprintf("passes=%d full-scans=%d sig-tokens=%d candidates=%d after-check=%d after-nn=%d verified=%d",
		f.SearchPasses, f.FullScans, f.SigTokens, f.Candidates, f.AfterCheck, f.AfterNN, f.Verified)
}

// Capture is a Funnel that goroutines fold finished records into under
// one lock: an engine's cumulative counters (every Searcher.Close), or
// the funnel of one logical query hung off Query.Stats (every pass the
// query fans out into — each reference of a discovery or batch). The zero
// value is ready to use.
type Capture struct {
	mu      sync.Mutex
	funnel  Funnel
	elapsed time.Duration
}

// fold adds one finished record. It is called once per pass or retiring
// worker, never per stage, so the lock stays off the hot loops.
func (c *Capture) fold(f *Funnel) {
	c.mu.Lock()
	c.funnel.Add(f)
	c.mu.Unlock()
}

// Funnel returns a copy of the counters folded in so far.
func (c *Capture) Funnel() Funnel {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.funnel
}

// AddElapsed accumulates wall time at whatever granularity the caller
// measures. Batch paths call it per item; single-query callers usually
// measure around the whole call instead.
func (c *Capture) AddElapsed(d time.Duration) {
	c.mu.Lock()
	c.elapsed += d
	c.mu.Unlock()
}

// Elapsed returns the accumulated wall time.
func (c *Capture) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsed
}

// Stats returns a snapshot of the engine's cumulative counters: the
// records of every Searcher closed so far.
func (e *Engine) Stats() Funnel { return e.st.Funnel() }
