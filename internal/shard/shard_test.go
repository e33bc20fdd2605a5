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

func jaccardOpts(conc int) core.Options {
	o := core.DefaultOptions(core.SetSimilarity, core.Jaccard, 0.6, 0)
	o.Concurrency = conc
	return o
}

func wordColl(raws []dataset.RawSet) *dataset.Collection {
	return dataset.BuildWord(tokens.NewDictionary(), raws)
}

func TestNewValidation(t *testing.T) {
	coll := wordColl(datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 5, Seed: 1}))
	if _, err := New(coll, 0, jaccardOpts(1)); err == nil {
		t.Error("shard count 0 should fail")
	}
	bad := jaccardOpts(1)
	bad.Delta = 2 // invalid, must surface from the engine build
	if _, err := New(coll, 3, bad); err == nil {
		t.Error("invalid options should fail")
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

// TestMoreShardsThanSets exercises empty shards: a 7-shard engine over 3
// sets must still answer correctly.
func TestMoreShardsThanSets(t *testing.T) {
	ctx := context.Background()
	raws := []dataset.RawSet{
		{Name: "a", Elements: []string{"77 Mass Ave Boston", "5th St Seattle"}},
		{Name: "b", Elements: []string{"77 Mass Ave Boston", "Elm St Seattle"}},
		{Name: "c", Elements: []string{"red bicycle", "blue kettle"}},
	}
	coll := wordColl(raws)
	e, err := New(coll, 7, jaccardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := e.SearchContext(ctx, &coll.Sets[0])
	if err != nil {
		t.Fatal(err)
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
	pairs, err := e.DiscoverContext(ctx, e.Collection())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].R != 0 || pairs[0].S != 1 {
		t.Fatalf("discover = %+v, want exactly (0,1)", pairs)
	}
}

func TestEmptyCollection(t *testing.T) {
	ctx := context.Background()
	e, err := New(wordColl(nil), 3, jaccardOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d", e.Len())
	}
	// Grow from empty through Add and query.
	e.Add([]dataset.RawSet{
		{Name: "a", Elements: []string{"x y z", "p q"}},
		{Name: "b", Elements: []string{"x y z", "p q r"}},
	})
	pairs, err := e.DiscoverContext(ctx, e.Collection())
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
		e, err := New(coll, n, jaccardOpts(2))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			want, err := e.SearchContext(ctx, &coll.Sets[r])
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.SearchTopKContext(ctx, &coll.Sets[r], math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("shards %d ref %d: top-MaxInt has %d matches, search %d", n, r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards %d ref %d match %d: %+v, want %+v", n, r, i, got[i], want[i])
				}
			}
		}
	}
}

func TestLocalTopK(t *testing.T) {
	m := func(set int, rel float64) core.Match {
		return core.Match{Set: set, Relatedness: rel, Score: rel}
	}
	ms := []core.Match{m(5, 0.3), m(1, 0.9), m(7, 0.9), m(2, 0.1), m(3, 0.9), m(0, 0.5)}
	got := localTopK(append([]core.Match(nil), ms...), 3)
	want := []core.Match{m(1, 0.9), m(3, 0.9), m(7, 0.9)} // 0.9 ties break by index
	if len(got) != len(want) {
		t.Fatalf("got %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if n := len(localTopK(append([]core.Match(nil), ms...), 100)); n != len(ms) {
		t.Fatalf("k beyond supply: %d items, want %d", n, len(ms))
	}
	if n := len(localTopK(nil, 3)); n != 0 {
		t.Fatalf("empty input: %d items, want 0", n)
	}
}

func TestSearchContextCancelled(t *testing.T) {
	coll := wordColl(datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 30, Seed: 4}))
	e, err := New(coll, 3, jaccardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SearchContext(ctx, &coll.Sets[0]); err != context.Canceled {
		t.Fatalf("search err = %v, want context.Canceled", err)
	}
	if _, err := e.DiscoverContext(ctx, e.Collection()); err != context.Canceled {
		t.Fatalf("discover err = %v, want context.Canceled", err)
	}
	if _, err := e.SearchBatchContext(ctx, []*dataset.Set{&coll.Sets[0]}); err != context.Canceled {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
}

// TestIncrementalEqualsBatch is the incremental == batch invariant run
// deeper than the differential harness: several Add batches of uneven
// sizes (including a single-set batch) against a fresh full build, at a
// prime shard count.
func TestIncrementalEqualsBatch(t *testing.T) {
	ctx := context.Background()
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 120, Seed: 9})
	opts := jaccardOpts(4)

	full, err := New(wordColl(raws), 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(wordColl(raws[:40]), 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range [][2]int{{40, 70}, {70, 71}, {71, len(raws)}} {
		inc.Add(raws[cut[0]:cut[1]])
	}
	if full.Len() != inc.Len() {
		t.Fatalf("lengths differ: full %d, incremental %d", full.Len(), inc.Len())
	}

	wantPairs, err := full.DiscoverContext(ctx, full.Collection())
	if err != nil {
		t.Fatal(err)
	}
	gotPairs, err := inc.DiscoverContext(ctx, inc.Collection())
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
		want, err := full.SearchContext(ctx, &full.Collection().Sets[ri])
		if err != nil {
			t.Fatal(err)
		}
		got, err := inc.SearchContext(ctx, &inc.Collection().Sets[ri])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("ref %d: full %d matches, incremental %d", ri, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ref %d match %d: full %+v, incremental %+v", ri, i, want[i], got[i])
			}
		}
	}
}
