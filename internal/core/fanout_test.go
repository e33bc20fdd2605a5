package core

import (
	"context"
	"fmt"
	"testing"

	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
)

// The fan-out differential grid: every call of many passes — a self-join
// discovery under both metrics over a collection with tombstones, a discovery
// against a separate reference collection, a 16-item batch — runs at widths
// {1, 2, 7} on Concurrency {1, 2, 4}, every pass wider than one goroutine
// forced to split into one chunk per slot, and must answer exactly as width 1
// on one worker: the same pairs and matches with the same scores, and the
// same per-query funnel.

// fanDeleted are the sets the grid tombstones before it queries.
var fanDeleted = []int{3, 17, 30, 44}

// fanEngine builds a Jaccard engine over raws on conc workers and tombstones
// fanDeleted.
func fanEngine(t *testing.T, raws []dataset.RawSet, metric Metric, conc int) *Engine {
	t.Helper()
	opts := DefaultOptions(metric, Jaccard, 0.6, 0)
	opts.Concurrency = conc
	e, err := NewEngine(dataset.BuildWord(tokens.NewDictionary(), raws), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range fanDeleted {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// fanAnswer is what one fan-out call returned: its pairs (a batch item i's
// matches as pairs with R = i) and each query's funnel.
type fanAnswer struct {
	pairs   []Pair
	funnels []Funnel
}

// fanCall is one kind of fan-out call: run makes it at width, and splits
// counts its passes that split when they run at width 2 or more — every
// non-empty reference's that cuts at least two chunks.
type fanCall struct {
	name   string
	metric Metric
	run    func(t *testing.T, e *Engine, width int) fanAnswer
	splits func(e *Engine) int64
}

// discoverCall runs a discovery of refs(e) under one capture.
func discoverCall(refs func(e *Engine) *dataset.Collection) func(t *testing.T, e *Engine, width int) fanAnswer {
	return func(t *testing.T, e *Engine, width int) fanAnswer {
		q := &Query{Stats: &Capture{}}
		ps, err := e.DiscoverQueryContext(context.Background(), refs(e), q, width)
		if err != nil {
			t.Fatal(err)
		}
		return fanAnswer{ps, []Funnel{q.Stats.Funnel()}}
	}
}

// nonEmpty counts the sets of refs that have elements and pass keep.
func nonEmpty(refs []dataset.Set, keep func(i int) bool) int64 {
	n := int64(0)
	for i := range refs {
		if len(refs[i].Elements) > 0 && keep(i) {
			n++
		}
	}
	return n
}

func fanCalls(against []dataset.RawSet) []fanCall {
	self := func(e *Engine) *dataset.Collection { return e.Collection() }
	againstColl := func(e *Engine) *dataset.Collection {
		return dataset.BuildWord(e.Collection().Dict, against)
	}
	batchRefs := func(e *Engine) *dataset.Collection { return setsIn(e.Collection(), 20, 36) }
	return []fanCall{
		{
			name: "self-join/similarity", metric: SetSimilarity, run: discoverCall(self),
			splits: func(e *Engine) int64 {
				slots := len(e.Collection().Sets)
				return nonEmpty(e.Collection().Sets, func(ri int) bool { return e.Alive(ri) && slots-ri-1 >= 2 })
			},
		},
		{
			name: "self-join/containment", metric: SetContainment, run: discoverCall(self),
			splits: func(e *Engine) int64 { return nonEmpty(e.Collection().Sets, e.Alive) },
		},
		{
			name: "against", metric: SetSimilarity, run: discoverCall(againstColl),
			splits: func(e *Engine) int64 {
				return nonEmpty(againstColl(e).Sets, func(int) bool { return true })
			},
		},
		{
			name: "batch", metric: SetSimilarity,
			run: func(t *testing.T, e *Engine, width int) fanAnswer {
				refs := batchRefs(e)
				qs := make([]*Query, len(refs.Sets))
				for i := range qs {
					qs[i] = &Query{Stats: &Capture{}}
				}
				res, err := e.SearchBatchQueries(context.Background(), refs, qs, width)
				if err != nil {
					t.Fatal(err)
				}
				var a fanAnswer
				for i, r := range res {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					for _, m := range r.Matches {
						a.pairs = append(a.pairs, Pair{R: i, S: m.Set, Relatedness: m.Relatedness, Score: m.Score})
					}
					a.funnels = append(a.funnels, qs[i].Stats.Funnel())
				}
				return a
			},
			splits: func(e *Engine) int64 { return nonEmpty(batchRefs(e).Sets, func(int) bool { return true }) },
		},
	}
}

// sameWork fails unless a query's funnel got counts the work of want: the
// stage counts, and the element pairs the filters looked at — a split pass's
// per-chunk memos may divide those between SimEvals and SimMemoHits
// differently, never change their sum.
func sameWork(t *testing.T, label string, got, want Funnel) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"SearchPasses", got.SearchPasses, want.SearchPasses},
		{"FullScans", got.FullScans, want.FullScans},
		{"SigTokens", got.SigTokens, want.SigTokens},
		{"Candidates", got.Candidates, want.Candidates},
		{"AfterCheck", got.AfterCheck, want.AfterCheck},
		{"CheckPruned", got.CheckPruned, want.CheckPruned},
		{"AfterNN", got.AfterNN, want.AfterNN},
		{"NNPruned", got.NNPruned, want.NNPruned},
		{"Verified", got.Verified, want.Verified},
		{"SimEvals+SimMemoHits", got.SimEvals + got.SimMemoHits, want.SimEvals + want.SimMemoHits},
		{"SimCounted", got.SimCounted, want.SimCounted},
		{"SimBounded", got.SimBounded, want.SimBounded},
	} {
		if c.got != c.want {
			t.Fatalf("%s: %s = %d, width 1 on one worker %d", label, c.name, c.got, c.want)
		}
	}
}

// TestFanOutDifferential runs the grid. A pass runs at width / workers
// goroutines (at least one), so passes split exactly where that is two or
// more — and then every reference's, which a self-join cuts into one chunk
// per slot after the reference.
func TestFanOutDifferential(t *testing.T) {
	defer ForceSplitForTest()()
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 60, Seed: 42})
	against := append(append([]dataset.RawSet{}, raws[5:11]...),
		datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 6, Seed: 43})...)
	for _, call := range fanCalls(against) {
		t.Run(call.name, func(t *testing.T) {
			ref := fanEngine(t, raws, call.metric, 1)
			want := call.run(t, ref, 1)
			if len(want.pairs) == 0 {
				t.Fatal("the workload produced no pairs")
			}
			if st := ref.Stats(); st.SplitPasses != 0 {
				t.Fatalf("width 1 split %d passes", st.SplitPasses)
			}
			for _, width := range []int{1, 2, 7} {
				for _, conc := range []int{1, 2, 4} {
					label := fmt.Sprintf("width %d, concurrency %d", width, conc)
					e := fanEngine(t, raws, call.metric, conc)
					got := call.run(t, e, width)
					if len(got.pairs) != len(want.pairs) {
						t.Fatalf("%s: %d pairs, want %d", label, len(got.pairs), len(want.pairs))
					}
					for i := range want.pairs {
						if got.pairs[i] != want.pairs[i] { // exact: ids and float scores
							t.Fatalf("%s: pair %d = %+v, want %+v", label, i, got.pairs[i], want.pairs[i])
						}
					}
					for i := range want.funnels {
						sameWork(t, fmt.Sprintf("%s, query %d", label, i), got.funnels[i], want.funnels[i])
					}
					// Every call has more references than workers.
					var split int64
					if width/conc >= 2 {
						split = call.splits(e)
					}
					if st := e.Stats(); st.SplitPasses != split {
						t.Fatalf("%s: %d passes split, want %d", label, st.SplitPasses, split)
					}
				}
			}
		})
	}
}

// TestSelfJoinCutsAfterReference pins a self-join pass's chunking: the pass
// for reference ri cuts only the sets after it, one chunk per slot when
// forced, chunksPerLane per goroutine of its width otherwise.
func TestSelfJoinCutsAfterReference(t *testing.T) {
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 40, Seed: 42})
	e := fanEngine(t, raws, SetSimilarity, 1)
	slots := len(e.Collection().Sets)
	for ri := range slots {
		p := &plan{e: e, selfSkip: ri, width: 2}
		c := p.cut(true)
		if c.chunks != slots-ri-1 {
			t.Fatalf("ref %d: forced cut makes %d chunks, want %d", ri, c.chunks, slots-ri-1)
		}
		if c.chunks == 0 {
			continue
		}
		if lo, _ := c.bounds(0); lo != int32(ri+1) {
			t.Fatalf("ref %d: chunk 0 starts at %d", ri, lo)
		}
		if _, hi := c.bounds(c.chunks - 1); hi != int32(slots) {
			t.Fatalf("ref %d: the last chunk ends at %d of %d slots", ri, hi, slots)
		}
		if got, want := p.cut(false).chunks, min(chunksPerLane*2, slots-ri-1); got != want {
			t.Fatalf("ref %d: %d chunks, want %d", ri, got, want)
		}
	}
}

// TestLateHelpersTouchNothingInFanOuts extends the late-helper rule to the
// passes a fan-out runs: a self-join discovery and a batch item, every helper
// held until its caller has returned, so each caller runs every chunk of its
// pass itself. The helpers are let go while AppendSets, Delete and Compact
// rewrite the engine, and must claim nothing and — under -race — read
// nothing of it.
func TestLateHelpersTouchNothingInFanOuts(t *testing.T) {
	defer ForceSplitForTest()()
	ctx := context.Background()
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 60, Seed: 3})
	build := func() *Engine {
		e, err := NewEngine(dataset.BuildWord(tokens.NewDictionary(), raws[:50]), DefaultOptions(SetSimilarity, Jaccard, 0.6, 0))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	answer := func(e *Engine, width int) ([]Pair, []Match) {
		ps, err := e.DiscoverQueryContext(ctx, e.Collection(), nil, width)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.SearchBatchQueries(ctx, setsIn(e.Collection(), 0, 1), nil, width)
		if err != nil || res[0].Err != nil {
			t.Fatal(err, res[0].Err)
		}
		return ps, res[0].Matches
	}
	wantPairs, wantMatches := answer(build(), 1)
	if len(wantPairs) == 0 || len(wantMatches) == 0 {
		t.Fatal("the workload produced no answer")
	}
	e := build()
	release := HoldHelpersForTest()
	gotPairs, gotMatches := answer(e, 4)
	claimed := make(chan int64)
	go func() { claimed <- release() }()
	e.AppendSets(dataset.Append(e.Collection(), raws[50:]))
	if err := e.Delete(1); err != nil {
		t.Fatal(err)
	}
	e.Compact()
	if n := <-claimed; n != 0 {
		t.Fatalf("helpers woken after their callers returned claimed %d chunks", n)
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("held helpers: %d pairs, want %d", len(gotPairs), len(wantPairs))
	}
	for i := range wantPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("held helpers: pair %d = %+v, want %+v", i, gotPairs[i], wantPairs[i])
		}
	}
	sameMatches(t, "held helpers: batch item", gotMatches, wantMatches)
	// Every reference but the last two cuts two or more chunks after itself,
	// and so does the batch item, which cuts them all.
	if st := e.Stats(); st.SplitPasses != 48+1 || st.HelperChunks != 0 {
		t.Fatalf("want 49 split passes whose callers ran every chunk, got %+v", st)
	}
}
