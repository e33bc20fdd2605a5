package core

import (
	"context"
	"testing"

	"silkmoth/internal/signature"
)

// TestStageTimingSampled drives an engine that times every pass and checks
// the wall time lands everywhere it should: the engine's cumulative stage
// counters and all four stage histograms.
func TestStageTimingSampled(t *testing.T) {
	e, ref := allocFixture(t, signature.Dichotomy)
	e.opts.StageSample = 1
	ctx := context.Background()
	const queries = 10
	for i := 0; i < queries; i++ {
		if _, err := e.SearchContext(ctx, ref); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.TimedPasses != queries {
		t.Fatalf("TimedPasses = %d, want %d", st.TimedPasses, queries)
	}
	if st.SigNanos <= 0 || st.CollectNanos <= 0 || st.VerifyNanos <= 0 {
		t.Errorf("stage nanos not accumulated: sig=%d collect=%d refine=%d verify=%d",
			st.SigNanos, st.CollectNanos, st.RefineNanos, st.VerifyNanos)
	}
	hs := e.StageLatencies()
	for s := Stage(0); s < NumStages; s++ {
		if hs[s].Count != queries {
			t.Errorf("stage %v histogram count = %d, want %d", s, hs[s].Count, queries)
		}
	}
}

// TestStageTimingDisabled checks negative StageSample turns timing off
// entirely.
func TestStageTimingDisabled(t *testing.T) {
	e, ref := allocFixture(t, signature.Dichotomy)
	e.opts.StageSample = -1
	if _, err := e.SearchContext(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TimedPasses != 0 {
		t.Fatalf("TimedPasses = %d with sampling disabled", st.TimedPasses)
	}
	for s, h := range e.StageLatencies() {
		if h.Count != 0 {
			t.Errorf("stage %v histogram count = %d with sampling disabled", Stage(s), h.Count)
		}
	}
}

// TestExplainAlwaysTimed checks a query with a stats capture is wall-timed
// regardless of the sampling interval, and its capture carries the
// per-stage split.
func TestExplainAlwaysTimed(t *testing.T) {
	e, ref := allocFixture(t, signature.Dichotomy)
	e.opts.StageSample = -1 // even with sampling off
	q := &Query{Stats: &Capture{}}
	if _, err := e.SearchSplitContext(context.Background(), ref, q, 1); err != nil {
		t.Fatal(err)
	}
	ps := q.Stats.Funnel()
	if ps.TimedPasses != ps.SearchPasses || ps.TimedPasses == 0 {
		t.Fatalf("TimedPasses = %d, SearchPasses = %d; explained queries must time every pass",
			ps.TimedPasses, ps.SearchPasses)
	}
	if ps.SigNanos <= 0 || ps.CollectNanos <= 0 || ps.VerifyNanos <= 0 {
		t.Errorf("capture missing stage nanos: sig=%d collect=%d refine=%d verify=%d",
			ps.SigNanos, ps.CollectNanos, ps.RefineNanos, ps.VerifyNanos)
	}
}

// TestSearchAllocsInstrumented re-pins the steady-state search budget with
// stage timing on every pass — observability must ride the zero-alloc
// pipeline for free.
func TestSearchAllocsInstrumented(t *testing.T) {
	skipUnderRace(t)
	e, ref := allocFixture(t, signature.Dichotomy)
	e.opts.StageSample = 1
	sr := e.NewSearcher()
	defer sr.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sr.Search(ctx, ref, -1); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := sr.Search(ctx, ref, -1); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 8 // identical to the uninstrumented gate
	if got > budget {
		t.Fatalf("instrumented Search allocates %.1f objects/query, budget %d", got, budget)
	}
	t.Logf("allocs/query = %.2f", got)
}
