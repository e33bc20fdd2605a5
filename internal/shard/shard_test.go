package shard

import (
	"context"
	"math"
	"testing"

	"silkmoth/internal/core"
	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/tokens"
)

// Most tests in this directory drive core.Engine at a width — the engine and
// the width the public silkmoth.Engine holds — and the race tests drive
// silkmoth.Engine itself, whose lock serializes mutations against queries.

func jaccardOpts(conc int) core.Options {
	o := core.DefaultOptions(core.SetSimilarity, core.Jaccard, 0.6, 0)
	o.Concurrency = conc
	return o
}

func wordColl(raws []dataset.RawSet) *dataset.Collection {
	return dataset.BuildWord(tokens.NewDictionary(), raws)
}

// atWidth is a core engine whose searches run on at most width goroutines,
// as the public engine's do. Tests mutate it from one goroutine only.
type atWidth struct {
	*core.Engine
	width int
}

// newAt builds the engine over coll at width n, its index filled from n
// set-id ranges.
func newAt(t *testing.T, coll *dataset.Collection, n int, opts core.Options) atWidth {
	t.Helper()
	eng, err := core.NewEngineFromSnapshot(&dataset.SnapshotData{Coll: coll}, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	return atWidth{eng, n}
}

func (e atWidth) search(ctx context.Context, r *dataset.Set) ([]core.Match, error) {
	return e.SearchSplitContext(ctx, r, nil, e.width)
}

func (e atWidth) searchQuery(ctx context.Context, r *dataset.Set, q *core.Query) ([]core.Match, error) {
	return e.SearchSplitContext(ctx, r, q, e.width)
}

func (e atWidth) topK(ctx context.Context, r *dataset.Set, k int) ([]core.Match, error) {
	return e.SearchSplitContext(ctx, r, &core.Query{K: k}, e.width)
}

func (e atWidth) discover(ctx context.Context) ([]core.Pair, error) {
	return e.DiscoverQueryContext(ctx, e.Collection(), nil, e.width)
}

// add appends raws to the collection and extends the index over them.
func (e atWidth) add(raws []dataset.RawSet) {
	e.AppendSets(dataset.Append(e.Collection(), raws))
}

// batch searches every ref in one SearchBatchQueries call, failing on any
// item's error.
func (e atWidth) batch(ctx context.Context, refs []dataset.Set) ([][]core.Match, error) {
	res, err := e.SearchBatchQueries(ctx, refs, nil, e.width)
	out := make([][]core.Match, len(res))
	for i, r := range res {
		out[i] = r.Matches
		if err == nil {
			err = r.Err
		}
	}
	return out, err
}

func TestNewValidation(t *testing.T) {
	coll := wordColl(datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 5, Seed: 1}))
	if _, err := New(coll, 0, jaccardOpts(1)); err == nil {
		t.Error("width 0 should fail")
	}
	bad := jaccardOpts(1)
	bad.Delta = 2 // invalid, must surface from the engine build
	if _, err := New(coll, 3, bad); err == nil {
		t.Error("invalid options should fail")
	}
	if _, err := core.NewEngineFromSnapshot(&dataset.SnapshotData{Coll: coll}, 3, bad); err == nil {
		t.Error("invalid options should fail the core constructor")
	}
}

// TestRangesPartitionSlots checks the split every search computes: the N
// ranges of a collection's slots are contiguous, cover every slot exactly
// once in id order, and differ in size by at most one, also when there are
// fewer slots than ranges.
func TestRangesPartitionSlots(t *testing.T) {
	for _, n := range []int{0, 3, 60, 73} {
		for _, parts := range []int{1, 2, 7} {
			next := 0
			for k := 0; k < parts; k++ {
				lo, hi := index.Range(k, parts, n)
				if lo != next || hi < lo {
					t.Fatalf("n=%d parts=%d: range %d is [%d, %d), want it to start at %d", n, parts, k, lo, hi, next)
				}
				if size := hi - lo; size < n/parts || size > n/parts+1 {
					t.Fatalf("n=%d parts=%d: range %d holds %d slots", n, parts, k, size)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d parts=%d: ranges end at %d", n, parts, next)
			}
		}
	}
}

// TestMoreShardsThanSets exercises empty ranges: an engine of width 7 over 3
// sets must still answer correctly, through the core engine and through the
// benchmark's shard.Engine.
func TestMoreShardsThanSets(t *testing.T) {
	defer core.ForceSplitForTest()()
	ctx := context.Background()
	raws := []dataset.RawSet{
		{Name: "a", Elements: []string{"77 Mass Ave Boston", "5th St Seattle"}},
		{Name: "b", Elements: []string{"77 Mass Ave Boston", "Elm St Seattle"}},
		{Name: "c", Elements: []string{"red bicycle", "blue kettle"}},
	}
	coll := wordColl(raws)
	e := newAt(t, coll, 7, jaccardOpts(2))
	sh, err := New(coll, 7, jaccardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := e.search(ctx, &coll.Sets[0])
	if err != nil {
		t.Fatal(err)
	}
	viaShard, err := sh.SearchContext(ctx, &coll.Sets[0])
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "shard.Engine", viaShard, ms)
	if sh.Stats().SearchPasses != 1 {
		t.Fatalf("shard.Engine counts %d passes for one search", sh.Stats().SearchPasses)
	}
	found := false
	for _, m := range ms {
		if m.Set == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("search from a should find b, got %+v", ms)
	}
	pairs, err := e.discover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].R != 0 || pairs[0].S != 1 {
		t.Fatalf("discover = %+v, want exactly (0,1)", pairs)
	}
}

func TestEmptyCollection(t *testing.T) {
	ctx := context.Background()
	e := newAt(t, wordColl(nil), 3, jaccardOpts(1))
	if e.LiveCount() != 0 {
		t.Fatalf("LiveCount = %d", e.LiveCount())
	}
	// Grow from empty through AppendSets and query.
	e.add([]dataset.RawSet{
		{Name: "a", Elements: []string{"x y z", "p q"}},
		{Name: "b", Elements: []string{"x y z", "p q r"}},
	})
	pairs, err := e.discover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v, want one", pairs)
	}
}

// TestSearchTopKHugeK pins that a caller's k never sizes an allocation: a
// top-k with k = math.MaxInt is the full answer at every width, with every
// wider search split.
func TestSearchTopKHugeK(t *testing.T) {
	defer core.ForceSplitForTest()()
	ctx := context.Background()
	coll := wordColl(datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 40, Seed: 5}))
	for _, n := range []int{1, 2, 7} {
		e := newAt(t, coll, n, jaccardOpts(2))
		for r := 0; r < 8; r++ {
			want, err := e.search(ctx, &coll.Sets[r])
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.topK(ctx, &coll.Sets[r], math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("width %d ref %d: top-MaxInt has %d matches, search %d", n, r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("width %d ref %d match %d: %+v, want %+v", n, r, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSearchContextCancelled(t *testing.T) {
	coll := wordColl(datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 30, Seed: 4}))
	e := newAt(t, coll, 3, jaccardOpts(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.search(ctx, &coll.Sets[0]); err != context.Canceled {
		t.Fatalf("search err = %v, want context.Canceled", err)
	}
	if _, err := e.discover(ctx); err != context.Canceled {
		t.Fatalf("discover err = %v, want context.Canceled", err)
	}
	if _, err := e.batch(ctx, coll.Sets[:1]); err != context.Canceled {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
}

// TestIncrementalEqualsBatch is the incremental == batch invariant run
// deeper than the differential harness: several AppendSets batches of uneven
// sizes (including a single-set batch) against a fresh full build, at a
// prime width.
func TestIncrementalEqualsBatch(t *testing.T) {
	ctx := context.Background()
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 120, Seed: 9})
	opts := jaccardOpts(4)

	full := newAt(t, wordColl(raws), 7, opts)
	inc := newAt(t, wordColl(raws[:40]), 7, opts)
	for _, cut := range [][2]int{{40, 70}, {70, 71}, {71, len(raws)}} {
		inc.add(raws[cut[0]:cut[1]])
	}
	if full.LiveCount() != inc.LiveCount() {
		t.Fatalf("lengths differ: full %d, incremental %d", full.LiveCount(), inc.LiveCount())
	}

	wantPairs, err := full.discover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotPairs, err := inc.discover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPairs) == 0 {
		t.Fatal("workload produced no pairs; corpus too sparse for the test")
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("pair counts differ: full %d, incremental %d", len(wantPairs), len(gotPairs))
	}
	for i := range wantPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("pair %d: full %+v, incremental %+v", i, wantPairs[i], gotPairs[i])
		}
	}
	for ri := range raws {
		want, err := full.search(ctx, &full.Collection().Sets[ri])
		if err != nil {
			t.Fatal(err)
		}
		got, err := inc.search(ctx, &inc.Collection().Sets[ri])
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, "incremental", got, want)
	}
}
