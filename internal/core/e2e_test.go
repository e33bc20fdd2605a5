package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/signature"
	"silkmoth/internal/tokens"
)

// randWordCorpus builds a random word-mode corpus with planted near-
// duplicates so that related pairs actually exist at high thresholds.
func randWordCorpus(rng *rand.Rand, numSets, vocab int) []dataset.RawSet {
	var raws []dataset.RawSet
	mkElem := func() string {
		k := rng.Intn(4) + 1
		s := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				s += " "
			}
			s += fmt.Sprintf("w%d", rng.Intn(vocab))
		}
		return s
	}
	mkSet := func(name string) dataset.RawSet {
		n := rng.Intn(4) + 1
		elems := make([]string, n)
		for i := range elems {
			elems[i] = mkElem()
		}
		return dataset.RawSet{Name: name, Elements: elems}
	}
	for i := 0; i < numSets; i++ {
		s := mkSet(fmt.Sprintf("S%d", i))
		raws = append(raws, s)
		if rng.Intn(3) == 0 && len(s.Elements) > 1 {
			// Plant a near-duplicate: copy with one element perturbed.
			dup := dataset.RawSet{Name: s.Name + "dup", Elements: append([]string(nil), s.Elements...)}
			dup.Elements[rng.Intn(len(dup.Elements))] = mkElem()
			raws = append(raws, dup)
		}
	}
	return raws
}

// randStringCorpus builds a qgram-mode corpus of letter strings with planted
// near-duplicates (single-character edits).
func randStringCorpus(rng *rand.Rand, numSets int) []dataset.RawSet {
	letters := "abcde"
	mkStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	var raws []dataset.RawSet
	for i := 0; i < numSets; i++ {
		n := rng.Intn(3) + 1
		elems := make([]string, n)
		for j := range elems {
			elems[j] = mkStr(rng.Intn(6) + 3)
		}
		raws = append(raws, dataset.RawSet{Name: fmt.Sprintf("S%d", i), Elements: elems})
		if rng.Intn(3) == 0 {
			dup := dataset.RawSet{Name: fmt.Sprintf("S%ddup", i), Elements: append([]string(nil), elems...)}
			b := []byte(dup.Elements[0])
			b[rng.Intn(len(b))] = letters[rng.Intn(len(letters))]
			dup.Elements[0] = string(b)
			raws = append(raws, dup)
		}
	}
	return raws
}

func comparePairs(t *testing.T, label string, got, want []Pair) {
	t.Helper()
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: engine found %d pairs, oracle %d\nengine: %+v\noracle: %+v",
			label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].R != want[i].R || got[i].S != want[i].S {
			t.Fatalf("%s: pair %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("%s: score differs on (%d,%d): %v vs %v",
				label, got[i].R, got[i].S, got[i].Score, want[i].Score)
		}
	}
}

// TestEndToEndJaccardMatchesBruteForce is the paper's core exactness claim:
// SilkMoth produces exactly the brute-force output, for every combination of
// metric, scheme, filters, reduction, δ, and α under Jaccard similarity.
func TestEndToEndJaccardMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2001))
	schemes := []signature.Kind{signature.Weighted, signature.CombUnweighted, signature.Skyline, signature.Dichotomy}
	filters := []struct{ check, nn bool }{{false, false}, {true, false}, {true, true}}

	for trial := 0; trial < 12; trial++ {
		raws := randWordCorpus(rng, 25, 12)
		dict := tokens.NewDictionary()
		coll := dataset.BuildWord(dict, raws)
		for _, metric := range []Metric{SetSimilarity, SetContainment} {
			for _, delta := range []float64{0.5, 0.7, 0.9} {
				for _, alpha := range []float64{0, 0.4, 0.7} {
					for _, scheme := range schemes {
						for _, f := range filters {
							for _, reduction := range []bool{false, true} {
								opts := Options{
									Metric: metric, Sim: Jaccard,
									Delta: delta, Alpha: alpha,
									Scheme:      scheme,
									CheckFilter: f.check, NNFilter: f.nn,
									Reduction: reduction,
								}
								eng, err := NewEngine(coll, opts)
								if err != nil {
									t.Fatal(err)
								}
								label := fmt.Sprintf("trial=%d %v %v δ=%v α=%v %v check=%v nn=%v red=%v",
									trial, metric, Jaccard, delta, alpha, scheme, f.check, f.nn, reduction)
								comparePairs(t, label, discover(eng, coll), eng.BruteForceDiscover(coll))
							}
						}
					}
				}
			}
		}
	}
}

// TestEndToEndEditMatchesBruteForce: the same exactness property under edit
// similarities, including infeasible-signature full-scan fallbacks.
func TestEndToEndEditMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	for trial := 0; trial < 8; trial++ {
		raws := randStringCorpus(rng, 18)
		for _, simKind := range []SimKind{Eds, NEds} {
			for _, delta := range []float64{0.6, 0.8} {
				for _, alpha := range []float64{0, 0.7, 0.8} {
					q := DefaultQ(delta, alpha)
					dict := tokens.NewDictionary()
					coll := dataset.BuildQGram(dict, raws, q)
					for _, scheme := range []signature.Kind{signature.Weighted, signature.CombUnweighted, signature.Skyline, signature.Dichotomy} {
						for _, nn := range []bool{false, true} {
							opts := Options{
								Metric: SetSimilarity, Sim: simKind,
								Delta: delta, Alpha: alpha, Q: q,
								Scheme:      scheme,
								CheckFilter: true, NNFilter: nn,
								Reduction: true,
							}
							eng, err := NewEngine(coll, opts)
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("trial=%d %v δ=%v α=%v q=%d %v nn=%v",
								trial, simKind, delta, alpha, q, scheme, nn)
							comparePairs(t, label, discover(eng, coll), eng.BruteForceDiscover(coll))
						}
					}
				}
			}
		}
	}
}

// Containment search mode (the inclusion-dependency application): reference
// sets drawn from the collection itself.
func TestEndToEndContainmentSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	for trial := 0; trial < 10; trial++ {
		raws := randWordCorpus(rng, 30, 10)
		dict := tokens.NewDictionary()
		coll := dataset.BuildWord(dict, raws)
		for _, alpha := range []float64{0, 0.5} {
			opts := DefaultOptions(SetContainment, Jaccard, 0.7, alpha)
			eng, err := NewEngine(coll, opts)
			if err != nil {
				t.Fatal(err)
			}
			for ri := 0; ri < len(coll.Sets); ri += 7 {
				r := &coll.Sets[ri]
				got := search(eng, r)
				want := eng.BruteForceSearch(r)
				if len(got) != len(want) {
					t.Fatalf("trial %d ref %d α=%v: %d vs %d results", trial, ri, alpha, len(got), len(want))
				}
				sort.Slice(got, func(i, j int) bool { return got[i].Set < got[j].Set })
				sort.Slice(want, func(i, j int) bool { return want[i].Set < want[j].Set })
				for i := range got {
					if got[i].Set != want[i].Set {
						t.Fatalf("trial %d ref %d: sets differ", trial, ri)
					}
				}
			}
		}
	}
}

// Degenerate inputs must not panic or diverge from the oracle.
func TestEndToEndDegenerateInputs(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, []dataset.RawSet{
		{Name: "empty", Elements: nil},
		{Name: "emptyElems", Elements: []string{"", "", ""}},
		{Name: "single", Elements: []string{"only one"}},
		{Name: "dupes", Elements: []string{"a a a", "a", "a"}},
		{Name: "normal", Elements: []string{"x y", "z w"}},
		{Name: "normal2", Elements: []string{"x y", "z w"}},
	})
	for _, metric := range []Metric{SetSimilarity, SetContainment} {
		for _, delta := range []float64{0.3, 0.7, 1.0} {
			eng, err := NewEngine(coll, DefaultOptions(metric, Jaccard, delta, 0))
			if err != nil {
				t.Fatal(err)
			}
			comparePairs(t, fmt.Sprintf("%v δ=%v", metric, delta),
				discover(eng, coll), eng.BruteForceDiscover(coll))
		}
	}
}

// δ = 1 demands perfect matchings; only exact duplicates qualify.
func TestDeltaOneOnlyExactDuplicates(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, []dataset.RawSet{
		{Name: "A", Elements: []string{"p q", "r s"}},
		{Name: "B", Elements: []string{"r s", "p q"}}, // same elements, reordered
		{Name: "C", Elements: []string{"p q", "r t"}}, // one token off
	})
	eng, err := NewEngine(coll, DefaultOptions(SetSimilarity, Jaccard, 1.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	pairs := discover(eng, coll)
	if len(pairs) != 1 || pairs[0].R != 0 || pairs[0].S != 1 {
		t.Errorf("δ=1 pairs = %+v, want only (A,B)", pairs)
	}
}
