package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
)

// schemaCorpus builds a WebTable-like corpus big enough that search passes
// carry many candidates.
func schemaCorpus(t *testing.T, n int) *dataset.Collection {
	t.Helper()
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: n, Seed: 7})
	return dataset.BuildWord(tokens.NewDictionary(), raws)
}

// TestParallelDiscoverByteIdentical pins the acceptance criterion: parallel
// Discover must return exactly the serial path's pairs — same pairs, same
// scores bit for bit — on a harness-style workload.
func TestParallelDiscoverByteIdentical(t *testing.T) {
	coll := schemaCorpus(t, 400)
	serial := DefaultOptions(SetSimilarity, Jaccard, 0.6, 0)
	parallel := serial
	parallel.Concurrency = 8

	engS, err := NewEngine(coll, serial)
	if err != nil {
		t.Fatal(err)
	}
	engP, err := NewEngine(coll, parallel)
	if err != nil {
		t.Fatal(err)
	}
	ps := discover(engS, coll)
	pp := discover(engP, coll)
	sortPairs(ps)
	sortPairs(pp)
	if len(ps) == 0 {
		t.Fatal("workload produced no pairs; corpus too sparse for the test")
	}
	if len(ps) != len(pp) {
		t.Fatalf("pair counts differ: serial %d, parallel %d", len(ps), len(pp))
	}
	for i := range ps {
		if ps[i] != pp[i] { // exact struct equality: indices AND float scores
			t.Fatalf("pair %d differs: serial %+v, parallel %+v", i, ps[i], pp[i])
		}
	}
	if engS.Stats().Verified != engP.Stats().Verified {
		t.Errorf("verified counts differ: serial %d, parallel %d",
			engS.Stats().Verified, engP.Stats().Verified)
	}
}

// TestParallelSearchByteIdentical checks a search pass cut into set-id
// chunks that helpers claim: forced to split, SearchSplitContext must return
// the serial pass's matches, and every pass must have started its helpers.
func TestParallelSearchByteIdentical(t *testing.T) {
	defer ForceSplitForTest()()
	coll := schemaCorpus(t, 400)
	opts := DefaultOptions(SetSimilarity, Jaccard, 0.5, 0)
	engS, err := NewEngine(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	engP, err := NewEngineFromIndex(engS.Index(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range coll.Sets {
		r := &coll.Sets[ri]
		mp, err := engP.SearchSplitContext(context.Background(), r, nil, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, fmt.Sprintf("ref %d", ri), mp, search(engS, r))
	}
	st, ss := engP.Stats(), engS.Stats()
	if st.SplitPasses != st.SearchPasses {
		t.Errorf("%d of %d passes split", st.SplitPasses, st.SearchPasses)
	}
	if st.Candidates != ss.Candidates || st.AfterCheck != ss.AfterCheck || st.AfterNN != ss.AfterNN || st.Verified != ss.Verified {
		t.Errorf("split funnel %v, serial %v", st, ss)
	}
	if runtime.GOMAXPROCS(0) > 1 && st.HelperChunks == 0 {
		t.Error("no helper claimed a chunk")
	}
}

func TestSearchContextCancelled(t *testing.T) {
	coll := schemaCorpus(t, 50)
	eng, err := NewEngine(coll, DefaultOptions(SetSimilarity, Jaccard, 0.6, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SearchContext(ctx, &coll.Sets[0]); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDiscoverContextCancelled(t *testing.T) {
	coll := schemaCorpus(t, 50)
	eng, err := NewEngine(coll, DefaultOptions(SetSimilarity, Jaccard, 0.6, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.DiscoverQueryContext(ctx, coll, nil, 1); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
