package core

import (
	"time"

	"silkmoth/internal/obs"
)

// Stage identifies one stage of the search-pass pipeline for timing and
// histogram purposes. The order mirrors execution: signature generation,
// candidate collection + check filter, nearest-neighbor refinement, exact
// verification (the full-scan fallback charges verification).
type Stage int

const (
	StageSignature Stage = iota
	StageCollect
	StageRefine
	StageVerify
	// NumStages sizes per-stage arrays.
	NumStages
)

// String returns the stage's metric label.
func (s Stage) String() string {
	switch s {
	case StageSignature:
		return "signature"
	case StageCollect:
		return "collect"
	case StageRefine:
		return "refine"
	case StageVerify:
		return "verify"
	default:
		return "unknown"
	}
}

// DefaultStageSample is the default per-worker sampling interval for stage
// timing: one in every DefaultStageSample search passes is wall-timed.
// Sampling keeps the four time.Now pairs off most hot-loop passes while
// still feeding the stage histograms continuously; explained queries are
// always timed regardless.
const DefaultStageSample = 16

// sampleTick reports whether this pass should be stage-timed, advancing
// the worker's private pass counter. Workers are single-goroutine, so the
// counter needs no atomics; pooled workers keep their phase across
// queries, which only shifts which passes get sampled, not the rate.
func (w *worker) sampleTick(every int) bool {
	if every <= 0 {
		return false
	}
	if every == 1 {
		return true
	}
	w.passSeq++
	return w.passSeq%int64(every) == 0
}

// lapTimer splits a pass's wall time between its stages. The zero value
// is off — lap reads no clock and returns 0 — so timed and unsampled
// passes run the same stage sequence.
type lapTimer struct {
	on   bool
	last time.Time
}

//silkmoth:hotpath
func startLaps(on bool) lapTimer {
	if !on {
		return lapTimer{}
	}
	return lapTimer{on: true, last: time.Now()}
}

// lap returns the nanoseconds since the previous lap (or the start) and
// begins the next one. The clock read is a function of its own so that the
// off check inlines into the stages.
//
//silkmoth:hotpath
func (t *lapTimer) lap() int64 {
	if !t.on {
		return 0
	}
	return t.read()
}

//silkmoth:hotpath
func (t *lapTimer) read() int64 {
	now := time.Now()
	d := now.Sub(t.last)
	t.last = now
	return int64(d)
}

// observeStages marks a finished pass's record as timed and feeds its
// per-stage wall time to the engine's stage histograms: the caller's
// timeline, which a pass's helpers do not add to (Funnel.HelperNanos).
//
//silkmoth:hotpath
func (e *Engine) observeStages(f *Funnel) {
	f.TimedPasses++
	e.stage[StageSignature].Observe(time.Duration(f.SigNanos))
	e.stage[StageCollect].Observe(time.Duration(f.CollectNanos))
	e.stage[StageRefine].Observe(time.Duration(f.RefineNanos))
	e.stage[StageVerify].Observe(time.Duration(f.VerifyNanos))
}

// StageLatencies returns snapshots of the engine's per-stage latency
// histograms, indexed by Stage. Each observation is one timed search
// pass's wall time in that stage.
func (e *Engine) StageLatencies() [NumStages]obs.HistogramSnapshot {
	var out [NumStages]obs.HistogramSnapshot
	for i := range e.stage {
		out[i] = e.stage[i].Snapshot()
	}
	return out
}
