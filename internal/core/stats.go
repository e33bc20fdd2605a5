package core

import (
	"fmt"
	"sync/atomic"

	"silkmoth/internal/filter"
	"silkmoth/internal/signature"
)

// Stats counts the work done by an engine across all search passes, stage
// by stage: signature generation (size and chosen scheme), candidate
// selection, the check filter, the nearest-neighbor filter, and exact
// verification. All counters are cumulative and safe to read concurrently.
type Stats struct {
	searchPasses int64
	fullScans    int64
	sigTokens    int64
	candidates   int64
	afterCheck   int64
	checkPruned  int64
	afterNN      int64
	nnPruned     int64
	verified     int64
	// φ_α across the check and nearest-neighbor filters: kernel calls, and
	// requests the per-pass memo answered instead (filter.SimCounts).
	simEvals    int64
	simMemoHits int64
	// Concrete scheme each signatured pass probed with — under Scheme
	// Auto this is the per-query cost-based choice; under a fixed scheme
	// it just counts passes.
	schemeWeighted  int64
	schemeComb      int64
	schemeSkyline   int64
	schemeDichotomy int64
	// Stage wall time from sampled timed passes (see Options.StageSample):
	// timedPasses counts the passes measured, the nanos fields their summed
	// per-stage durations. Divide to estimate where a pass spends its time.
	timedPasses  int64
	sigNanos     int64
	collectNanos int64
	refineNanos  int64
	verifyNanos  int64
}

func (s *Stats) addSearchPasses(n int64) { atomic.AddInt64(&s.searchPasses, n) }
func (s *Stats) addFullScans(n int64)    { atomic.AddInt64(&s.fullScans, n) }
func (s *Stats) addSigTokens(n int64)    { atomic.AddInt64(&s.sigTokens, n) }
func (s *Stats) addCandidates(n int64)   { atomic.AddInt64(&s.candidates, n) }
func (s *Stats) addAfterCheck(n int64)   { atomic.AddInt64(&s.afterCheck, n) }
func (s *Stats) addCheckPruned(n int64)  { atomic.AddInt64(&s.checkPruned, n) }
func (s *Stats) addAfterNN(n int64)      { atomic.AddInt64(&s.afterNN, n) }
func (s *Stats) addNNPruned(n int64)     { atomic.AddInt64(&s.nnPruned, n) }
func (s *Stats) addVerified(n int64)     { atomic.AddInt64(&s.verified, n) }

// addSim records the φ_α counts a worker's filters took over one pass.
func (s *Stats) addSim(n filter.SimCounts) {
	atomic.AddInt64(&s.simEvals, n.Evals)
	atomic.AddInt64(&s.simMemoHits, n.MemoHits)
}

// addStageNanos records one timed pass's per-stage wall time.
func (s *Stats) addStageNanos(sig, collect, refine, verify int64) {
	atomic.AddInt64(&s.timedPasses, 1)
	atomic.AddInt64(&s.sigNanos, sig)
	atomic.AddInt64(&s.collectNanos, collect)
	atomic.AddInt64(&s.refineNanos, refine)
	atomic.AddInt64(&s.verifyNanos, verify)
}

// addScheme records which concrete scheme a pass probed with.
func (s *Stats) addScheme(k signature.Kind) {
	switch k {
	case signature.Weighted:
		atomic.AddInt64(&s.schemeWeighted, 1)
	case signature.CombUnweighted:
		atomic.AddInt64(&s.schemeComb, 1)
	case signature.Skyline:
		atomic.AddInt64(&s.schemeSkyline, 1)
	case signature.Dichotomy:
		atomic.AddInt64(&s.schemeDichotomy, 1)
	}
}

// merge folds a retiring worker's stats shard into s. Workers accumulate
// privately and merge once, so hot verification loops never contend on the
// engine's shared counters.
func (s *Stats) merge(from *Stats) {
	atomic.AddInt64(&s.searchPasses, atomic.LoadInt64(&from.searchPasses))
	atomic.AddInt64(&s.fullScans, atomic.LoadInt64(&from.fullScans))
	atomic.AddInt64(&s.sigTokens, atomic.LoadInt64(&from.sigTokens))
	atomic.AddInt64(&s.candidates, atomic.LoadInt64(&from.candidates))
	atomic.AddInt64(&s.afterCheck, atomic.LoadInt64(&from.afterCheck))
	atomic.AddInt64(&s.checkPruned, atomic.LoadInt64(&from.checkPruned))
	atomic.AddInt64(&s.afterNN, atomic.LoadInt64(&from.afterNN))
	atomic.AddInt64(&s.nnPruned, atomic.LoadInt64(&from.nnPruned))
	atomic.AddInt64(&s.verified, atomic.LoadInt64(&from.verified))
	atomic.AddInt64(&s.simEvals, atomic.LoadInt64(&from.simEvals))
	atomic.AddInt64(&s.simMemoHits, atomic.LoadInt64(&from.simMemoHits))
	atomic.AddInt64(&s.schemeWeighted, atomic.LoadInt64(&from.schemeWeighted))
	atomic.AddInt64(&s.schemeComb, atomic.LoadInt64(&from.schemeComb))
	atomic.AddInt64(&s.schemeSkyline, atomic.LoadInt64(&from.schemeSkyline))
	atomic.AddInt64(&s.schemeDichotomy, atomic.LoadInt64(&from.schemeDichotomy))
	atomic.AddInt64(&s.timedPasses, atomic.LoadInt64(&from.timedPasses))
	atomic.AddInt64(&s.sigNanos, atomic.LoadInt64(&from.sigNanos))
	atomic.AddInt64(&s.collectNanos, atomic.LoadInt64(&from.collectNanos))
	atomic.AddInt64(&s.refineNanos, atomic.LoadInt64(&from.refineNanos))
	atomic.AddInt64(&s.verifyNanos, atomic.LoadInt64(&from.verifyNanos))
}

// reset zeroes a retired worker's private shard so the worker can be pooled
// and reused without double-counting. Only safe on shards with no
// concurrent writers.
func (s *Stats) reset() {
	*s = Stats{}
}

// StatsSnapshot is a point-in-time copy of an engine's counters.
type StatsSnapshot struct {
	// SearchPasses is the number of search passes run.
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
	// neighbor filters; SimMemoHits counts the requests their per-pass
	// memo answered without one. Both repeat exactly for a given corpus
	// and query mix (verification's kernel calls are not included).
	SimEvals    int64
	SimMemoHits int64
	// Scheme* count signatured passes by the concrete scheme that
	// generated the probe signature. Under Scheme Auto they expose the
	// per-query cost-based selection; under a fixed scheme exactly one
	// of them grows.
	SchemeWeighted       int64
	SchemeCombUnweighted int64
	SchemeSkyline        int64
	SchemeDichotomy      int64
	// TimedPasses counts the search passes whose stages were wall-timed
	// (sampled per Options.StageSample, plus every explained query); the
	// *Nanos fields hold those passes' summed per-stage durations.
	TimedPasses  int64
	SigNanos     int64
	CollectNanos int64
	RefineNanos  int64
	VerifyNanos  int64
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() StatsSnapshot {
	return StatsSnapshot{
		SearchPasses:         atomic.LoadInt64(&e.st.searchPasses),
		FullScans:            atomic.LoadInt64(&e.st.fullScans),
		SigTokens:            atomic.LoadInt64(&e.st.sigTokens),
		Candidates:           atomic.LoadInt64(&e.st.candidates),
		AfterCheck:           atomic.LoadInt64(&e.st.afterCheck),
		CheckPruned:          atomic.LoadInt64(&e.st.checkPruned),
		AfterNN:              atomic.LoadInt64(&e.st.afterNN),
		NNPruned:             atomic.LoadInt64(&e.st.nnPruned),
		Verified:             atomic.LoadInt64(&e.st.verified),
		SimEvals:             atomic.LoadInt64(&e.st.simEvals),
		SimMemoHits:          atomic.LoadInt64(&e.st.simMemoHits),
		SchemeWeighted:       atomic.LoadInt64(&e.st.schemeWeighted),
		SchemeCombUnweighted: atomic.LoadInt64(&e.st.schemeComb),
		SchemeSkyline:        atomic.LoadInt64(&e.st.schemeSkyline),
		SchemeDichotomy:      atomic.LoadInt64(&e.st.schemeDichotomy),
		TimedPasses:          atomic.LoadInt64(&e.st.timedPasses),
		SigNanos:             atomic.LoadInt64(&e.st.sigNanos),
		CollectNanos:         atomic.LoadInt64(&e.st.collectNanos),
		RefineNanos:          atomic.LoadInt64(&e.st.refineNanos),
		VerifyNanos:          atomic.LoadInt64(&e.st.verifyNanos),
	}
}

// ResetStats zeroes the engine's counters.
func (e *Engine) ResetStats() {
	atomic.StoreInt64(&e.st.searchPasses, 0)
	atomic.StoreInt64(&e.st.fullScans, 0)
	atomic.StoreInt64(&e.st.sigTokens, 0)
	atomic.StoreInt64(&e.st.candidates, 0)
	atomic.StoreInt64(&e.st.afterCheck, 0)
	atomic.StoreInt64(&e.st.checkPruned, 0)
	atomic.StoreInt64(&e.st.afterNN, 0)
	atomic.StoreInt64(&e.st.nnPruned, 0)
	atomic.StoreInt64(&e.st.verified, 0)
	atomic.StoreInt64(&e.st.simEvals, 0)
	atomic.StoreInt64(&e.st.simMemoHits, 0)
	atomic.StoreInt64(&e.st.schemeWeighted, 0)
	atomic.StoreInt64(&e.st.schemeComb, 0)
	atomic.StoreInt64(&e.st.schemeSkyline, 0)
	atomic.StoreInt64(&e.st.schemeDichotomy, 0)
	atomic.StoreInt64(&e.st.timedPasses, 0)
	atomic.StoreInt64(&e.st.sigNanos, 0)
	atomic.StoreInt64(&e.st.collectNanos, 0)
	atomic.StoreInt64(&e.st.refineNanos, 0)
	atomic.StoreInt64(&e.st.verifyNanos, 0)
}

// String renders the snapshot as one report line.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf("passes=%d full-scans=%d sig-tokens=%d candidates=%d after-check=%d after-nn=%d verified=%d",
		s.SearchPasses, s.FullScans, s.SigTokens, s.Candidates, s.AfterCheck, s.AfterNN, s.Verified)
}
