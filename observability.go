package silkmoth

import (
	"time"

	"silkmoth/internal/core"
	"silkmoth/internal/obs"
)

// LatencyHistogram is a point-in-time latency distribution with fixed
// log-spaced buckets (powers of two from 1µs to ~67s). Engines maintain
// one per pipeline stage; serving layers render them as Prometheus
// histograms.
type LatencyHistogram struct {
	// Bounds are the finite bucket upper bounds in seconds, ascending.
	Bounds []float64
	// Counts are per-bucket observation counts: Counts[i] observations
	// were ≤ Bounds[i] (and above the previous bound); the final extra
	// element counts observations above every bound. Counts are
	// non-cumulative; len(Counts) = len(Bounds)+1.
	Counts []int64
	// Count is the total number of observations, Sum their summed
	// duration.
	Count int64
	Sum   time.Duration
}

// fromSnapshot converts an internal histogram snapshot to the public form.
func fromSnapshot(s obs.HistogramSnapshot) LatencyHistogram {
	h := LatencyHistogram{
		Bounds: obs.BucketBounds(),
		Counts: make([]int64, obs.NumBuckets),
		Count:  s.Count,
		Sum:    time.Duration(s.SumNanos),
	}
	copy(h.Counts, s.Counts[:])
	return h
}

// Funnel is the pruning funnel of some search passes — one query's (in
// Explain) or all the engine's so far (in Stats): how many sets each stage
// of the pipeline let through, from signature generation to exact
// verification, and how many element pairs the filters looked at. Its JSON
// keys are the ones silkmothd's /v1/explain, /v1/stats and slow-query log
// report it under.
//
// It is consistent by construction: Candidates = AfterCheck + CheckPruned,
// AfterCheck = AfterNN + NNPruned, and every AfterNN survivor is Verified
// (full-scan passes verify without entering the funnel).
type Funnel struct {
	// FullScans counts passes that compared the reference against every
	// set because no valid signature existed (edit similarity at low α).
	FullScans int64 `json:"full_scans"`
	// SigTokens is the number of signature tokens generated — the index
	// probe volume the scheme selection minimizes.
	SigTokens int64 `json:"sig_tokens"`
	// Candidates counts sets matched by signature tokens before
	// refinement; AfterCheck/CheckPruned split them by the check filter,
	// AfterNN/NNPruned split the survivors by the nearest-neighbor
	// filter, and Verified counts exact maximum-matching computations.
	Candidates  int64 `json:"candidates"`
	AfterCheck  int64 `json:"after_check"`
	CheckPruned int64 `json:"check_pruned"`
	AfterNN     int64 `json:"after_nn"`
	NNPruned    int64 `json:"nn_pruned"`
	Verified    int64 `json:"verified"`
	// SimEvals counts φ_α kernel calls made by the check and nearest-
	// neighbor filters; SimMemoHits counts the filter requests answered
	// by the per-pass similarity memo instead; SimCounted counts the
	// pairs a filter scored exactly from the number of tokens the index
	// showed the two elements to share, with no kernel call (Jaccard,
	// Dice, Cosine); SimBounded counts the pairs the check filter dropped
	// because that number and the two sizes — under Eds and NEds, the two
	// lengths — already kept them below the element's bound (see README
	// "Query pipeline"). The four add up to the element pairs the filters
	// looked at, and one query's four repeat exactly on a fixed engine
	// state. Verification's cells are in none of them.
	SimEvals    int64 `json:"sim_evals"`
	SimMemoHits int64 `json:"sim_memo_hits"`
	SimCounted  int64 `json:"sim_counted"`
	SimBounded  int64 `json:"sim_bounded"`
}

// funnelOf lowers the engine's funnel record to the public one.
func funnelOf(f core.Funnel) Funnel {
	return Funnel{
		FullScans:   f.FullScans,
		SigTokens:   f.SigTokens,
		Candidates:  f.Candidates,
		AfterCheck:  f.AfterCheck,
		CheckPruned: f.CheckPruned,
		AfterNN:     f.AfterNN,
		NNPruned:    f.NNPruned,
		Verified:    f.Verified,
		SimEvals:    f.SimEvals,
		SimMemoHits: f.SimMemoHits,
		SimCounted:  f.SimCounted,
		SimBounded:  f.SimBounded,
	}
}

// StageTimes is per-stage wall time through the search pipeline: signature
// generation, candidate collection + check filter, nearest-neighbor
// refinement, and exact verification.
type StageTimes struct {
	Signature time.Duration
	Collect   time.Duration
	Refine    time.Duration
	Verify    time.Duration
}

// stageTimes lowers a funnel's per-stage nanoseconds to the public shape.
func stageTimes(f core.Funnel) StageTimes {
	return StageTimes{
		Signature: time.Duration(f.SigNanos),
		Collect:   time.Duration(f.CollectNanos),
		Refine:    time.Duration(f.RefineNanos),
		Verify:    time.Duration(f.VerifyNanos),
	}
}

// StageLatencies bundles the four pipeline stages' latency distributions.
// Each observation is one timed search pass's wall time in that stage (see
// Config.StageSample; explained queries are always timed).
type StageLatencies struct {
	Signature LatencyHistogram
	Collect   LatencyHistogram
	Refine    LatencyHistogram
	Verify    LatencyHistogram
}

// StageLatencies returns the engine's per-stage latency histograms.
func (e *Engine) StageLatencies() StageLatencies {
	hs := e.eng.StageLatencies()
	return StageLatencies{
		Signature: fromSnapshot(hs[core.StageSignature]),
		Collect:   fromSnapshot(hs[core.StageCollect]),
		Refine:    fromSnapshot(hs[core.StageRefine]),
		Verify:    fromSnapshot(hs[core.StageVerify]),
	}
}
