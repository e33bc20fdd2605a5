package silkmoth

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// autoGridCorpus builds a deterministic corpus with heavy token overlap so
// every scheme generates non-trivial signatures and the filters all fire.
func autoGridCorpus(seed int64, n int) []Set {
	rng := rand.New(rand.NewSource(seed))
	sets := make([]Set, n)
	for i := range sets {
		ne := 1 + rng.Intn(4)
		elems := make([]string, ne)
		for j := range elems {
			k := 1 + rng.Intn(4)
			s := ""
			for w := 0; w < k; w++ {
				if w > 0 {
					s += " "
				}
				s += fmt.Sprintf("tok%d", rng.Intn(18))
			}
			elems[j] = s
		}
		sets[i] = Set{Name: fmt.Sprintf("S%d", i), Elements: elems}
	}
	return sets
}

// TestSchemeAutoMatchesFixedSchemes pins the Auto scheme's exactness
// guarantee on the full Metric × Similarity grid, serial and sharded:
// because signature schemes only decide how the index is probed, Auto must
// return exactly the matches, scores, and order of every fixed valid
// scheme. Any divergence means a scheme produced an invalid signature or
// Auto broke candidate generation.
func TestSchemeAutoMatchesFixedSchemes(t *testing.T) {
	sets := autoGridCorpus(77, 24)
	queries := autoGridCorpus(78, 6)

	for _, metric := range []Metric{SetSimilarity, SetContainment} {
		for _, simFn := range []Similarity{Jaccard, Dice, Cosine, Eds, NEds} {
			for _, alpha := range []float64{0, 0.5} {
				for _, shards := range []int{1, 3} {
					base := Config{
						Metric:     metric,
						Similarity: simFn,
						Delta:      0.6,
						Alpha:      alpha,
						Shards:     shards,
					}
					autoCfg := base
					autoCfg.Scheme = SchemeAuto
					autoEng, err := NewEngine(sets, autoCfg)
					if err != nil {
						t.Fatal(err)
					}
					autoPairs := mustDiscover(t, autoEng)

					for _, fixed := range []Scheme{SchemeDichotomy, SchemeSkyline, SchemeWeighted, SchemeCombUnweighted} {
						fixedCfg := base
						fixedCfg.Scheme = fixed
						fixedEng, err := NewEngine(sets, fixedCfg)
						if err != nil {
							t.Fatal(err)
						}

						fixedPairs := mustDiscover(t, fixedEng)
						if len(fixedPairs) != len(autoPairs) {
							t.Fatalf("%v/%v α=%v shards=%d: auto found %d pairs, %v found %d",
								metric, simFn, alpha, shards, len(autoPairs), fixed, len(fixedPairs))
						}
						for i := range autoPairs {
							a, f := autoPairs[i], fixedPairs[i]
							if a.R != f.R || a.S != f.S || a.Relatedness != f.Relatedness || a.MatchingScore != f.MatchingScore {
								t.Fatalf("%v/%v α=%v shards=%d vs %v: pair %d differs: auto=%+v fixed=%+v",
									metric, simFn, alpha, shards, fixed, i, a, f)
							}
						}

						for qi, q := range queries {
							am, err := autoEng.SearchContext(context.Background(), q)
							if err != nil {
								t.Fatal(err)
							}
							fm, err := fixedEng.SearchContext(context.Background(), q)
							if err != nil {
								t.Fatal(err)
							}
							if len(am) != len(fm) {
								t.Fatalf("%v/%v α=%v shards=%d vs %v: query %d: auto %d matches, fixed %d",
									metric, simFn, alpha, shards, fixed, qi, len(am), len(fm))
							}
							for i := range am {
								if am[i] != fm[i] {
									t.Fatalf("%v/%v α=%v shards=%d vs %v: query %d match %d differs: auto=%+v fixed=%+v",
										metric, simFn, alpha, shards, fixed, qi, i, am[i], fm[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSchemeAutoRecordsSelections checks the observability half of the Auto
// scheme: signatured passes must land in exactly one concrete scheme
// counter, and at α = 0 the selector short-circuits to Weighted.
func TestSchemeAutoRecordsSelections(t *testing.T) {
	sets := autoGridCorpus(79, 20)
	eng, err := NewEngine(sets, Config{Similarity: Jaccard, Delta: 0.6, Scheme: SchemeAuto})
	if err != nil {
		t.Fatal(err)
	}
	mustDiscover(t, eng)
	st := eng.Stats()
	chosen := st.SchemeWeighted + st.SchemeSkyline + st.SchemeDichotomy + st.SchemeCombUnweighted
	if chosen != st.SearchPasses-st.FullScans {
		t.Fatalf("scheme selections %d != signatured passes %d", chosen, st.SearchPasses-st.FullScans)
	}
	if st.SchemeWeighted == 0 || st.SchemeSkyline != 0 || st.SchemeDichotomy != 0 {
		t.Fatalf("α=0 Auto must always pick Weighted, got %+v", st)
	}

	// At α > 0 Auto compares Skyline against Dichotomy per query.
	eng2, err := NewEngine(sets, Config{Similarity: Jaccard, Delta: 0.6, Alpha: 0.5, Scheme: SchemeAuto})
	if err != nil {
		t.Fatal(err)
	}
	mustDiscover(t, eng2)
	st2 := eng2.Stats()
	if st2.SchemeWeighted != 0 {
		t.Fatalf("α>0 Auto never picks pure Weighted, got %+v", st2)
	}
	if st2.SchemeSkyline+st2.SchemeDichotomy != st2.SearchPasses-st2.FullScans {
		t.Fatalf("α>0 selections don't cover passes: %+v", st2)
	}
}
