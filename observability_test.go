package silkmoth

import (
	"testing"

	"silkmoth/internal/core"
)

// TestStageLatenciesPublic drives two engine widths with every pass timed
// and checks the public observability surface: stage histograms populated
// and Stats carrying the stage time sums.
func TestStageLatenciesPublic(t *testing.T) {
	sets := allocCorpus(120)
	for _, shards := range []int{1, 3} {
		eng, err := NewEngine(sets, Config{
			Similarity:  Jaccard,
			Delta:       0.5,
			Alpha:       0.3,
			Shards:      shards,
			StageSample: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		const queries = 4
		for i := 0; i < queries; i++ {
			if _, err := eng.Search(sets[7]); err != nil {
				t.Fatal(err)
			}
		}
		wantPasses := int64(queries) // one pass a query, split or not
		sl := eng.StageLatencies()
		for _, h := range []LatencyHistogram{sl.Signature, sl.Collect, sl.Refine, sl.Verify} {
			if h.Count != wantPasses {
				t.Errorf("shards=%d: stage histogram count = %d, want %d", shards, h.Count, wantPasses)
			}
			if len(h.Bounds) == 0 || len(h.Counts) != len(h.Bounds)+1 {
				t.Errorf("shards=%d: malformed histogram: %d bounds, %d counts", shards, len(h.Bounds), len(h.Counts))
			}
		}
		st := eng.Stats()
		if st.TimedPasses != wantPasses {
			t.Errorf("shards=%d: TimedPasses = %d, want %d", shards, st.TimedPasses, wantPasses)
		}
		if st.Stages.Signature <= 0 || st.Stages.Collect <= 0 || st.Stages.Verify <= 0 {
			t.Errorf("shards=%d: stage times not accumulated: %+v", shards, st.Stages)
		}
	}
}

// TestExplainStages checks an explained query reports its per-stage wall
// time split alongside the funnel, and that the stages — the caller's
// timeline — stay within the query's wall time when the pass runs in chunks
// on helpers too, whose busy time is HelperTime. The query is a one-item
// batch, which runs its pass at the engine's width: forced, it splits.
func TestExplainStages(t *testing.T) {
	sets := allocCorpus(120)
	for _, tc := range []struct {
		name   string
		shards int
		forced bool
	}{{"width 1", 1, false}, {"default width", 0, false}, {"forced split", 4, true}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.forced {
				defer core.ForceSplitForTest()()
			}
			eng, err := NewEngine(sets, Config{
				Similarity:  Jaccard,
				Delta:       0.5,
				Alpha:       0.3,
				Shards:      tc.shards,
				StageSample: -1, // explain must time even with sampling disabled
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.SearchBatchQueries([]BatchQuery{{Set: sets[7], Options: []QueryOption{WithExplain(new(Explain))}}})
			if err != nil {
				t.Fatal(err)
			}
			ex := res[0].Explain
			if ex == nil {
				t.Fatal("no explain capture")
			}
			stagesSum := ex.Stages.Signature + ex.Stages.Collect + ex.Stages.Refine + ex.Stages.Verify
			if stagesSum <= 0 {
				t.Fatalf("explain stage times empty: %+v", ex.Stages)
			}
			if stagesSum > ex.Elapsed {
				t.Errorf("stage times %v exceed total elapsed %v", stagesSum, ex.Elapsed)
			}
			st := eng.Stats()
			if (tc.forced && st.SplitPasses != 1) || (tc.shards == 1 && st.SplitPasses != 0) || (ex.HelperTime > 0) != (st.HelperChunks > 0) {
				t.Errorf("split passes %d, helper chunks %d, helper time %v", st.SplitPasses, st.HelperChunks, ex.HelperTime)
			}
		})
	}
}
