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
	hs := e.sh.StageLatencies()
	return StageLatencies{
		Signature: fromSnapshot(hs[core.StageSignature]),
		Collect:   fromSnapshot(hs[core.StageCollect]),
		Refine:    fromSnapshot(hs[core.StageRefine]),
		Verify:    fromSnapshot(hs[core.StageVerify]),
	}
}
