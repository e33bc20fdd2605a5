package core

import (
	"context"
	"fmt"
	"math"
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
// across every similarity function, both metrics, three α, and with the
// verification loop serial and spread over 4 goroutines. The table's size
// may change how often the kernel runs, never a result.
//
// The same grid holds the count paths to the oracle: under Jaccard, Dice and
// Cosine the check filter decides most pairs from the signature tokens they
// share (SimBounded, SimCounted), and the nearest-neighbor filter and
// verification read φ_α off index overlap counts (SimCounted), while
// BruteForceSearch and BruteForceDiscover call the kernel on every cell. A
// twin engine with all counting switched off must return the same matches
// bit for bit. What the two looked at obeys the sum rule: SimEvals +
// SimMemoHits + SimCounted + SimBounded is the number of distinct ⟨reference
// element, candidate element⟩ pairs for the counting engine, whose check
// filter meets each pair once, and one per posting in the twin's check
// filter, which meets a pair once per signature token the two share — so
// the engine's sum never exceeds the twin's, and the twin, like any engine
// under the edit similarities, counts nothing and bounds nothing from
// overlaps. Under Eds and NEds the two engines are the same engine, and the
// sums — length-bounded postings included — are equal.
func TestMemoEvictionGrid(t *testing.T) {
	defer filter.SetMemoSlotsForTest(2)()
	seed := 8100 + memoRun.Add(1)
	raws := datagen.RepeatedElements(seed, 40, 12)
	for _, simKind := range []SimKind{Jaccard, Dice, Cosine, Eds, NEds} {
		bounded := int64(0) // at α = 0 a cell of the grid may bound nothing
		for _, metric := range []Metric{SetSimilarity, SetContainment} {
			for _, alpha := range []float64{0, 0.5, 0.8} {
				for _, concurrency := range []int{1, 4} {
					coll, opts := buildFor(simKind, raws, 0.6, alpha)
					opts.Metric = metric
					opts.Concurrency = concurrency
					eng, err := NewEngine(coll, opts)
					if err != nil {
						t.Fatal(err)
					}
					kernel, err := NewEngineFromIndex(eng.Index(), opts)
					if err != nil {
						t.Fatal(err)
					}
					kernel.fromOverlap = nil // before its first worker exists
					label := fmt.Sprintf("seed=%d %v %v α=%v concurrency=%d", seed, simKind, metric, alpha, concurrency)
					comparePairs(t, label, discover(eng, coll), eng.BruteForceDiscover(coll))
					discover(kernel, coll)
					for ri := range coll.Sets {
						got := search(eng, &coll.Sets[ri])
						sameMatches(t, fmt.Sprintf("%s ref=%d", label, ri), got, eng.BruteForceSearch(&coll.Sets[ri]))
						sameMatches(t, fmt.Sprintf("%s ref=%d, kernel twin", label, ri), got, search(kernel, &coll.Sets[ri]))
					}
					st, kst := eng.Stats(), kernel.Stats()
					if st.FullScans < st.SearchPasses && st.SimEvals == 0 {
						t.Errorf("%s: signatured passes ran without one filter similarity", label)
					}
					counts := simKind.TokenMode() == dataset.ModeWord
					if counts != (st.SimCounted > 0) || kst.SimCounted != 0 {
						t.Errorf("%s: SimCounted is %d (%d on the kernel twin); want > 0 exactly under token-based similarities", label, st.SimCounted, kst.SimCounted)
					}
					if counts && kst.SimBounded != 0 {
						t.Errorf("%s: SimBounded is %d on the kernel twin, which counts no overlaps", label, kst.SimBounded)
					}
					bounded += st.SimBounded
					pairs, kpairs := st.SimEvals+st.SimMemoHits+st.SimCounted+st.SimBounded, kst.SimEvals+kst.SimMemoHits+kst.SimBounded
					if pairs > kpairs || (!counts && pairs != kpairs) || (counts && st.SimEvals+st.SimMemoHits >= kst.SimEvals+kst.SimMemoHits) {
						t.Errorf("%s: the filters looked at %d distinct element pairs (%d evals + %d memo hits + %d counted + %d bounded), the kernel twin's at %d postings and pairs (%d + %d + %d bounded)",
							label, pairs, st.SimEvals, st.SimMemoHits, st.SimCounted, st.SimBounded, kpairs, kst.SimEvals, kst.SimMemoHits, kst.SimBounded)
					}
				}
			}
		}
		if bounded == 0 {
			t.Errorf("seed=%d %v: the check filter bounded no pair anywhere on the grid", seed, simKind)
		}
	}
}

// TestMemoParallelVerifyByteIdentical: a pass of width 4, forced to split,
// hands its chunks to searchers borrowed from the pool, whose memo — under
// Jaccard, whose overlap scratch — last served another reference and another
// set. Their results must be the serial engine's, bit for bit, with the
// default table and with a thrashing one, and both must be the brute-force
// answer. Run under -race this also shows the borrowed searchers share no
// memo or scratch with the pass's own worker.
func TestMemoParallelVerifyByteIdentical(t *testing.T) {
	defer ForceSplitForTest()()
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
			parallel, err := NewEngineFromIndex(serial.Index(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for ri := range coll.Sets {
				got, err := parallel.SearchSplitContext(context.Background(), &coll.Sets[ri], nil, 4, 0)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed=%d %v slots=%d ref=%d", seed, simKind, slots, ri)
				sameMatches(t, label+" vs brute force", got, serial.BruteForceSearch(&coll.Sets[ri]))
				sameMatches(t, label+" vs serial", got, search(serial, &coll.Sets[ri]))
			}
			restore()
			if st := parallel.Stats(); st.SplitPasses != st.SearchPasses {
				t.Fatalf("seed=%d %v: %d of %d passes split", seed, simKind, st.SplitPasses, st.SearchPasses)
			}
			ps, ss := parallel.Stats(), serial.Stats()
			if p, s := ps.SimEvals+ps.SimMemoHits+ps.SimCounted+ps.SimBounded, ss.SimEvals+ss.SimMemoHits+ss.SimCounted+ss.SimBounded; p != s || ps.SimCounted != ss.SimCounted || ps.SimBounded != ss.SimBounded {
				t.Errorf("seed=%d %v slots=%d: filters looked at %d pairs in parallel (%d from counts, %d bounded), %d serially (%d from counts, %d bounded)",
					seed, simKind, slots, p, ps.SimCounted, ps.SimBounded, s, ss.SimCounted, ss.SimBounded)
			}
			if (simKind == Jaccard) != (ps.SimCounted > 0) {
				t.Errorf("seed=%d %v slots=%d: SimCounted = %d; want > 0 exactly under Jaccard", seed, simKind, slots, ps.SimCounted)
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
	if _, err := eng.searchPass(context.Background(), &coll.Sets[0], -1, w, 1, nil); err != nil {
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

// TestOverlapFillEqualsDenseFill holds the two sources of verification's
// weight matrix together. For token-based similarities the pipeline fills a
// row from the overlap row of the reference element (overlapSim: zero the
// row, write the cells the index walk names, each from its shared-token
// count); the oracle paths call the φ_α kernel on every cell (pairSim).
// Every row must be the same float64s, whole and through a reduction's
// column remap, and Score and ScoreReduced must return the same bits from
// either — over similarity × α × reduction × index form, on the engine as
// built and after Add, Update (Delete + Add), Delete and Compact, for
// indexed references and for a query holding words the index has never
// seen and an element with no words at all.
func TestOverlapFillEqualsDenseFill(t *testing.T) {
	seed := 8400 + memoRun.Add(1)
	raws := datagen.RepeatedElements(seed, 30, 12)
	raws[4].Elements = append(raws[4].Elements, "") // an indexed empty element
	more := datagen.RepeatedElements(seed+1000, 8, 12)
	queryRaw := dataset.RawSet{Name: "query", Elements: []string{
		raws[0].Elements[0], raws[1].Elements[0] + " neverindexed", "", "alsonew words", raws[2].Elements[1],
	}}
	for _, simKind := range []SimKind{Jaccard, Dice, Cosine} {
		for _, alpha := range []float64{0, 0.5, 0.8} {
			for _, compressed := range []bool{false, true} {
				coll, opts := buildFor(simKind, raws, 0.6, alpha)
				opts.CompressPostings = compressed
				opts.PostingCacheBytes = 1 << 10 // tiny: ranges decode off containers
				opts.CompactionThreshold = -1    // compaction only when the test says so
				eng, err := NewEngine(coll, opts)
				if err != nil {
					t.Fatal(err)
				}
				check := func(state string) {
					label := fmt.Sprintf("seed=%d %v α=%v compressed=%v %s", seed, simKind, alpha, compressed, state)
					w := eng.newWorker()
					if w.vs.os.fromOverlap == nil {
						t.Fatalf("%s: the worker's verification is not set up to count overlaps", label)
					}
					var oracle verifyScratch // as BruteForceSearch's: the dense kernel fill
					query := &dataset.BuildQuery(coll.Dict, []dataset.RawSet{queryRaw}, coll.Mode, coll.Q).Sets[0]
					refs := []*dataset.Set{query}
					for si := range coll.Sets {
						if eng.Alive(si) {
							refs = append(refs, &coll.Sets[si])
						}
					}
					nonZero := 0
					for _, r := range refs {
						for s := range coll.Sets {
							if !eng.Alive(s) {
								continue
							}
							sSet := &coll.Sets[s]
							nS := len(sSet.Elements)
							// A remap as the reduction builds one: every third
							// column gone, the rest renumbered in order.
							remap, kept := make([]int32, nS), 0
							for j := range remap {
								remap[j] = -1
								if j%3 != 1 {
									remap[j] = int32(kept)
									kept++
								}
							}
							dense := pairSim{phi: eng.phi, r: r, s: sSet}
							w.vs.os.r, w.vs.os.set = r, int32(s)
							for i := range r.Elements {
								for _, m := range []struct {
									remap []int32
									n     int
								}{{nil, nS}, {remap, kept}} {
									want, got := make([]float64, m.n), make([]float64, m.n)
									for k := range got {
										got[k] = -1 // Row must write every cell
									}
									dense.Row(i, m.remap, want)
									w.vs.os.Row(i, m.remap, got)
									for k := range want {
										if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
											t.Fatalf("%s: R=%q row %d × set %d (remapped=%v) cell %d: %v from the overlap count, %v from the kernel",
												label, r.Name, i, s, m.remap != nil, k, got[k], want[k])
										}
										if want[k] > 0 {
											nonZero++
										}
									}
								}
							}
							for _, reduction := range []bool{false, true} {
								o := opts
								o.Reduction = reduction
								o.Delta = 0.05 // nearly every pair is related, so Match carries the score
								gm, gok := eng.verifyWith(r, s, &w.vs, &o)
								wm, wok := eng.verifyWith(r, s, &oracle, &o)
								if gok != wok || gm != wm {
									t.Fatalf("%s: R=%q × set %d reduction=%v: (%+v,%v) from overlap counts, (%+v,%v) from the kernel",
										label, r.Name, s, reduction, gm, gok, wm, wok)
								}
							}
						}
					}
					if nonZero == 0 {
						t.Fatalf("%s: no cell was above 0; the corpus exercises nothing", label)
					}
				}
				check("fresh")
				eng.AppendSets(dataset.Append(coll, more[:4]))
				check("after Add")
				if err := eng.Delete(3); err != nil { // Update: the old set goes, its replacement is appended
					t.Fatal(err)
				}
				eng.AppendSets(dataset.Append(coll, more[4:6]))
				check("after Update")
				if err := eng.Delete(7); err != nil {
					t.Fatal(err)
				}
				check("after Delete")
				eng.Compact()
				eng.AppendSets(dataset.Append(coll, more[6:]))
				check("after Compact and Add")
				if n := eng.Index().DecodeErrors(); n != 0 {
					t.Fatalf("seed=%d %v α=%v compressed=%v: %d container decode errors", seed, simKind, alpha, compressed, n)
				}
			}
		}
	}
}
