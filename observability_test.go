package silkmoth

import (
	"testing"
)

// TestStageLatenciesPublic drives both engine shapes with every pass timed
// and checks the public observability surface: stage histograms populated,
// Stats carrying the stage time sums, per-shard latencies on the sharded
// engine only.
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
		shl := eng.ShardLatencies()
		if shards == 1 {
			if shl != nil {
				t.Errorf("unsharded engine reports shard latencies: %v", shl)
			}
			continue
		}
		if len(shl) != shards {
			t.Fatalf("got %d shard latency histograms, want %d", len(shl), shards)
		}
		for s, h := range shl {
			if h.Count != queries {
				t.Errorf("shard %d scatter count = %d, want %d", s, h.Count, queries)
			}
		}
	}
}

// TestExplainStages checks an explained query reports its per-stage wall
// time split alongside the funnel.
func TestExplainStages(t *testing.T) {
	sets := allocCorpus(120)
	eng, err := NewEngine(sets, Config{
		Similarity:  Jaccard,
		Delta:       0.5,
		Alpha:       0.3,
		StageSample: -1, // explain must time even with sampling disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Explain(sets[7])
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Explain
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
}
