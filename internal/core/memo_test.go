package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/filter"
	"silkmoth/internal/tokens"
)

// memoRun numbers the executions of the seed-dependent tests below within
// one process, so `go test -count=2` runs them on two different corpora.
var memoRun atomic.Int64

func buildFor(simKind SimKind, raws []dataset.RawSet, delta, alpha float64) (*dataset.Collection, Options) {
	opts := DefaultOptions(SetSimilarity, simKind, delta, alpha)
	dict := tokens.NewDictionary()
	if simKind.TokenMode() == dataset.ModeQGram {
		opts.Q = DefaultQ(delta, alpha)
		return dataset.BuildQGram(dict, raws, opts.Q), opts
	}
	return dataset.BuildWord(dict, raws), opts
}

func sameMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	got, want = append([]Match(nil), got...), append([]Match(nil), want...)
	bySet := func(ms []Match) func(i, j int) bool { return func(i, j int) bool { return ms[i].Set < ms[j].Set } }
	sort.Slice(got, bySet(got))
	sort.Slice(want, bySet(want))
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d\n got: %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] { // indices and float scores, bit for bit
			t.Fatalf("%s: match %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestMemoEvictionGrid shrinks the filters' similarity memo to 2 slots, so
// that nearly every store evicts, and requires Search and Discover to stay
// exactly the brute-force answer on a corpus of heavily repeated elements,
// across every similarity function, both metrics and three α. The table's
// size may change how often the kernel runs, never a result.
func TestMemoEvictionGrid(t *testing.T) {
	defer filter.SetMemoSlotsForTest(2)()
	seed := 8100 + memoRun.Add(1)
	raws := datagen.RepeatedElements(seed, 40, 12)
	for _, simKind := range []SimKind{Jaccard, Dice, Cosine, Eds, NEds} {
		for _, metric := range []Metric{SetSimilarity, SetContainment} {
			for _, alpha := range []float64{0, 0.5, 0.8} {
				coll, opts := buildFor(simKind, raws, 0.6, alpha)
				opts.Metric = metric
				eng, err := NewEngine(coll, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed=%d %v %v α=%v", seed, simKind, metric, alpha)
				comparePairs(t, label, discover(eng, coll), eng.BruteForceDiscover(coll))
				for ri := range coll.Sets {
					sameMatches(t, fmt.Sprintf("%s ref=%d", label, ri), search(eng, &coll.Sets[ri]), eng.BruteForceSearch(&coll.Sets[ri]))
				}
				if st := eng.Stats(); st.FullScans < st.SearchPasses && st.SimEvals == 0 {
					t.Errorf("%s: signatured passes ran without one filter similarity", label)
				}
			}
		}
	}
}

// TestMemoParallelVerifyByteIdentical: with Concurrency 4 a pass of 16 or
// more survivors hands its candidates to searchers borrowed from the pool,
// whose memo last served another reference. Their results must be the
// serial engine's, bit for bit and in order, with the default table and
// with a thrashing one. Run under -race this also shows the borrowed
// searchers share no memo with the pass's own worker.
func TestMemoParallelVerifyByteIdentical(t *testing.T) {
	seed := 8200 + memoRun.Add(1)
	raws := datagen.RepeatedElements(seed, 160, 12)
	for _, slots := range []int{2, 1 << 13} {
		for _, simKind := range []SimKind{Jaccard, Eds} {
			restore := filter.SetMemoSlotsForTest(slots)
			alpha := 0.5
			if simKind == Eds {
				alpha = 0.8 // q = 3; at α 0.5 q is 1 and most signatures are invalid
			}
			coll, opts := buildFor(simKind, raws, 0.5, alpha)
			serial, err := NewEngine(coll, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Concurrency = 4
			parallel, err := NewEngineFromIndex(serial.Index(), opts)
			if err != nil {
				t.Fatal(err)
			}
			sharded := 0
			for ri := range coll.Sets {
				before := parallel.Stats().AfterCheck
				got := search(parallel, &coll.Sets[ri])
				if parallel.Stats().AfterCheck-before >= parallelCandMin {
					sharded++
				}
				want := search(serial, &coll.Sets[ri])
				if len(got) != len(want) {
					t.Fatalf("seed=%d %v slots=%d ref=%d: %d matches in parallel, %d serially", seed, simKind, slots, ri, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed=%d %v slots=%d ref=%d: match %d is %+v in parallel, %+v serially", seed, simKind, slots, ri, i, got[i], want[i])
					}
				}
			}
			restore()
			if sharded == 0 {
				t.Fatalf("seed=%d %v: no pass had %d survivors; parallel verification never ran", seed, simKind, parallelCandMin)
			}
			ps, ss := parallel.Stats(), serial.Stats()
			if ps.SimEvals+ps.SimMemoHits != ss.SimEvals+ss.SimMemoHits {
				t.Errorf("seed=%d %v slots=%d: filters asked for φ %d times in parallel, %d serially",
					seed, simKind, slots, ps.SimEvals+ps.SimMemoHits, ss.SimEvals+ss.SimMemoHits)
			}
		}
	}
}

// TestMemoKeyRecycledBetweenSearches: element keys are ref-counted ids, and
// Delete → Compact → Add hands a freed id to new content. One worker that
// searched before the mutation and searches again after it, with the same
// reference, must not answer from what it remembered under that id: its
// second answer is that of an engine built fresh over the surviving sets.
//
// Both scenarios query a two-element reference under containment at δ 0.85
// (θ = 1.7), where the signature probes through one element and leaves the
// other to the nearest-neighbor filter. The deleted set holds the only copy
// of an element far from the reference, and the added set puts an element
// close to it under the same id — so a remembered similarity is too low,
// and would prune the one set the query must find.
func TestMemoKeyRecycledBetweenSearches(t *testing.T) {
	for _, sc := range []struct {
		name       string
		raws       []dataset.RawSet // set 2 is deleted
		added, ref dataset.RawSet
		candidates int64 // of the first search: shows it met the deleted set
	}{
		{
			// The signature is token r of element 0. The check filter meets
			// "r s u" (φ 1/5) through it, then "p q r t" (φ 3/4 ≥ the bound
			// 2/3) under the same id.
			name: "collect",
			raws: []dataset.RawSet{
				{Name: "a", Elements: []string{"p q r", "x y"}},
				{Name: "b", Elements: []string{"p q r", "p q"}},
				{Name: "old", Elements: []string{"r s u", "x y"}},
				{Name: "c", Elements: []string{"x y", "p q"}},
			},
			added: dataset.RawSet{Name: "new", Elements: []string{"p q r t", "x y"}},
			ref:   dataset.RawSet{Name: "ref", Elements: []string{"p q r", "x y"}},

			candidates: 3, // a, b, old
		},
		{
			// The signature is two tokens of element 1, which a, old and new
			// hold verbatim. The nearest-neighbor search of element 0 meets
			// "p a b c" (φ 1/6), then "p q r w" (φ 3/4, enough for 1.75 ≥ θ)
			// under the same id.
			name: "nn",
			raws: []dataset.RawSet{
				{Name: "a", Elements: []string{"p q r", "x y z v"}},
				{Name: "b", Elements: []string{"p q r", "p q"}},
				{Name: "old", Elements: []string{"p a b c", "x y z v"}},
				{Name: "c", Elements: []string{"p q r", "q r"}},
				{Name: "d", Elements: []string{"p q r", "r"}},
			},
			added: dataset.RawSet{Name: "new", Elements: []string{"p q r w", "x y z v"}},
			ref:   dataset.RawSet{Name: "ref", Elements: []string{"p q r", "x y z v"}},

			candidates: 2, // a, old
		},
	} {
		t.Run(sc.name, func(t *testing.T) {
			opts := DefaultOptions(SetContainment, Jaccard, 0.85, 0)
			coll := dataset.BuildWord(tokens.NewDictionary(), sc.raws)
			eng, err := NewEngine(coll, opts)
			if err != nil {
				t.Fatal(err)
			}
			sr := eng.NewSearcher() // one worker, held across the mutation
			defer sr.Close()
			ctx := context.Background()
			query := func(c *dataset.Collection) *dataset.Set {
				return &dataset.BuildQuery(c.Dict, []dataset.RawSet{sc.ref}, c.Mode, c.Q).Sets[0]
			}
			if _, err := sr.Search(ctx, query(coll), -1); err != nil {
				t.Fatal(err)
			}
			if sr.w.total.Candidates != sc.candidates {
				t.Fatalf("the first search had %d candidates, want %d: it must meet the set about to be deleted", sr.w.total.Candidates, sc.candidates)
			}
			freed := map[tokens.ID]bool{}
			for _, e := range coll.Sets[2].Elements {
				freed[e.Key] = true
			}
			if err := eng.Delete(2); err != nil {
				t.Fatal(err)
			}
			eng.Compact()
			from := dataset.Append(coll, []dataset.RawSet{sc.added})
			eng.AppendSets(from)
			recycled := false
			for _, e := range coll.Sets[from].Elements {
				live := false // the id counts as recycled only if its old content is gone
				for si := range coll.Sets[:from] {
					for _, o := range coll.Sets[si].Elements {
						live = live || (eng.Alive(si) && o.Key == e.Key)
					}
				}
				recycled = recycled || (freed[e.Key] && !live)
			}
			if !recycled {
				t.Fatal("no added element inherited the deleted element's key id; the scenario is not exercised")
			}
			got, err := sr.Search(ctx, query(coll), -1)
			if err != nil {
				t.Fatal(err)
			}

			// The fresh build keeps slot 2 as an empty placeholder so that
			// set indices line up.
			live := append(append([]dataset.RawSet(nil), sc.raws...), sc.added)
			live[2] = dataset.RawSet{Name: "old"}
			freshColl := dataset.BuildWord(tokens.NewDictionary(), live)
			fresh, err := NewEngine(freshColl, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, "after delete, compact and add", got, search(fresh, query(freshColl)))
			found := false
			for _, m := range got {
				found = found || m.Set == from
			}
			if !found {
				t.Fatalf("the added set is not among the matches %+v", got)
			}
		})
	}
}

// TestMemoLazyAllocGate: NewEngine creates no worker, and a worker created
// for the first query holds no memo table until its first pass runs — so a
// heap reading taken after set-up and before the first query cannot see the
// tables — and what the first pass then allocates stays within 512 KiB.
func TestMemoLazyAllocGate(t *testing.T) {
	skipUnderRace(t)
	coll, opts := buildFor(Jaccard, datagen.RepeatedElements(8300, 40, 12), 0.6, 0.5)
	eng, err := NewEngine(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	if eng.srPool.Get() != nil {
		t.Fatal("NewEngine left a worker in the pool")
	}
	totalAlloc := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	const oneTable = 100 << 10 // under one table (128 KiB), far over this corpus's bare worker
	a0 := totalAlloc()
	w := eng.newWorker()
	a1 := totalAlloc()
	if _, err := eng.searchPass(context.Background(), &coll.Sets[0], -1, w, false, nil); err != nil {
		t.Fatal(err)
	}
	a2 := totalAlloc()
	if a1-a0 > oneTable {
		t.Errorf("a new worker takes %d bytes before its first pass; the memo tables must be lazy", a1-a0)
	}
	if a2-a1 < oneTable || a2-a1 > 512<<10 {
		t.Errorf("the first pass allocated %d bytes; want the two memo tables and little else, within 512 KiB", a2-a1)
	}
}
