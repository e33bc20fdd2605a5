package core

import (
	"context"
	"math"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/paperdata"
	"silkmoth/internal/signature"
	"silkmoth/internal/tokens"
)

func paperEngine(t *testing.T, opts Options) (*Engine, *dataset.Set) {
	t.Helper()
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, paperdata.CollectionS())
	eng, err := NewEngine(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	refColl := dataset.BuildWord(dict, []dataset.RawSet{paperdata.ReferenceR()})
	return eng, &refColl.Sets[0]
}

// Paper Example 2: under SET-CONTAINMENT with Jac, α = 0, δ = 0.7, the
// search returns only S4, with |R ∩̃ S4| = 0.8 + 1 + 3/7 ≈ 2.229 and
// containment ≈ 0.743.
func TestPaperExample2Containment(t *testing.T) {
	for _, scheme := range []signature.Kind{
		signature.Weighted, signature.Skyline, signature.Dichotomy, signature.CombUnweighted,
	} {
		for _, filters := range []struct{ check, nn bool }{
			{false, false}, {true, false}, {true, true},
		} {
			opts := Options{
				Metric:      SetContainment,
				Sim:         Jaccard,
				Delta:       0.7,
				Scheme:      scheme,
				CheckFilter: filters.check,
				NNFilter:    filters.nn,
				Reduction:   true,
			}
			eng, r := paperEngine(t, opts)
			got := search(eng, r)
			if len(got) != 1 {
				t.Fatalf("%v/%+v: got %d results, want 1 (S4)", scheme, filters, len(got))
			}
			m := got[0]
			if eng.Collection().Sets[m.Set].Name != "S4" {
				t.Errorf("%v: matched %s, want S4", scheme, eng.Collection().Sets[m.Set].Name)
			}
			wantScore := 0.8 + 1.0 + 3.0/7.0
			if math.Abs(m.Score-wantScore) > 1e-9 {
				t.Errorf("%v: score = %v, want %v", scheme, m.Score, wantScore)
			}
			if math.Abs(m.Relatedness-wantScore/3) > 1e-9 {
				t.Errorf("%v: containment = %v, want %v", scheme, m.Relatedness, wantScore/3)
			}
		}
	}
}

// Example 3's walk-through quotes 0.743 for similar(R, S4), but that is the
// containment value M/|R|; Definition 1's actual SET-SIMILARITY is
// M/(|R|+|S|-M) = 2.2286/3.7714 ≈ 0.591. At δ = 0.55 the search must return
// exactly S4 (the correct value clears the threshold; no other set comes
// close).
func TestPaperExample3Similarity(t *testing.T) {
	opts := DefaultOptions(SetSimilarity, Jaccard, 0.55, 0)
	eng, r := paperEngine(t, opts)
	got := search(eng, r)
	if len(got) != 1 || eng.Collection().Sets[got[0].Set].Name != "S4" {
		t.Fatalf("similarity search = %+v, want only S4", got)
	}
	// similar = M / (|R|+|S|-M) with M = 2.2286, |R| = |S| = 3.
	m := got[0]
	wantSim := m.Score / (6 - m.Score)
	if math.Abs(m.Relatedness-wantSim) > 1e-12 {
		t.Errorf("similarity = %v, want %v", m.Relatedness, wantSim)
	}
	if m.Relatedness < 0.55 {
		t.Errorf("similarity %v below δ", m.Relatedness)
	}
}

func TestSearchMatchesBruteForceOnPaperData(t *testing.T) {
	for _, metric := range []Metric{SetSimilarity, SetContainment} {
		for _, delta := range []float64{0.3, 0.5, 0.7, 0.9} {
			opts := DefaultOptions(metric, Jaccard, delta, 0)
			eng, r := paperEngine(t, opts)
			got := search(eng, r)
			want := eng.BruteForceSearch(r)
			if len(got) != len(want) {
				t.Fatalf("%v δ=%v: engine %d results, oracle %d", metric, delta, len(got), len(want))
			}
		}
	}
}

func TestStatsCounting(t *testing.T) {
	opts := DefaultOptions(SetContainment, Jaccard, 0.7, 0)
	eng, r := paperEngine(t, opts)
	search(eng, r)
	st := eng.Stats()
	if st.SearchPasses != 1 {
		t.Errorf("passes = %d", st.SearchPasses)
	}
	if st.Candidates == 0 || st.Verified == 0 {
		t.Errorf("stats not counted: %+v", st)
	}
	if st.AfterNN > st.AfterCheck || st.AfterCheck > st.Candidates {
		t.Errorf("funnel not monotone: %+v", st)
	}
}

func TestOptionValidation(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, paperdata.CollectionS())
	if _, err := NewEngine(coll, Options{Delta: 0, Sim: Jaccard}); err == nil {
		t.Error("delta 0 should fail")
	}
	if _, err := NewEngine(coll, Options{Delta: 1.5, Sim: Jaccard}); err == nil {
		t.Error("delta > 1 should fail")
	}
	if _, err := NewEngine(coll, Options{Delta: 0.7, Alpha: 1.0, Sim: Jaccard}); err == nil {
		t.Error("alpha 1 should fail")
	}
	if _, err := NewEngine(coll, Options{Delta: 0.7, Sim: Eds}); err == nil {
		t.Error("word-mode collection with edit similarity should fail")
	}
	qcoll := dataset.BuildQGram(tokens.NewDictionary(), paperdata.CollectionS(), 3)
	if _, err := NewEngine(qcoll, Options{Delta: 0.7, Sim: Jaccard}); err == nil {
		t.Error("qgram-mode collection with Jaccard should fail")
	}
	if _, err := NewEngine(qcoll, Options{Delta: 0.7, Alpha: 0.8, Sim: Eds, Q: 2}); err == nil {
		t.Error("mismatched q should fail")
	}
	eng, err := NewEngine(qcoll, Options{Delta: 0.7, Alpha: 0.8, Sim: Eds, Q: 3})
	if err != nil {
		t.Fatalf("valid edit engine failed: %v", err)
	}
	if eng.Options().Q != 3 {
		t.Error("q not preserved")
	}
}

// TestNonFiniteThresholdsRejected: NaN compares false with everything, so
// the range tests must be written as the range. An engine built with δ =
// NaN used to construct and then find nothing.
func TestNonFiniteThresholdsRejected(t *testing.T) {
	coll := dataset.BuildWord(tokens.NewDictionary(), paperdata.CollectionS())
	eng, err := NewEngine(coll, Options{Delta: 0.7, Sim: Jaccard})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewEngine(coll, Options{Delta: v, Sim: Jaccard}); err == nil {
			t.Errorf("NewEngine accepted delta %v", v)
		}
		if _, err := NewEngine(coll, Options{Delta: 0.7, Alpha: v, Sim: Jaccard}); err == nil {
			t.Errorf("NewEngine accepted alpha %v", v)
		}
		q := &Query{Delta: v}
		if err := q.Validate(); err == nil {
			t.Errorf("Query.Validate accepted delta %v", v)
		}
		if _, err := eng.SearchSplitContext(context.Background(), &coll.Sets[0], q, 1); err == nil {
			t.Errorf("SearchSplitContext ran with query delta %v", v)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	o, err := Options{Delta: 0.7, Sim: Jaccard, NNFilter: true, Reduction: true, Alpha: 0.5}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !o.CheckFilter {
		t.Error("NN filter should imply check filter")
	}
	if o.Reduction {
		t.Error("reduction must be disabled for α > 0")
	}
	if o.Concurrency != 1 {
		t.Error("concurrency default should be 1")
	}
	o, _ = Options{Delta: 0.7, Sim: NEds, Alpha: 0, Reduction: true}.normalize()
	if o.Reduction {
		t.Error("reduction must be disabled for NEds")
	}
	if o.Q < 1 {
		t.Error("q default missing for edit similarity")
	}
}

func TestDefaultQ(t *testing.T) {
	cases := []struct {
		delta, alpha float64
		want         int
	}{
		{0.7, 0.85, 5}, // paper footnote 11: α=0.85 → q=5
		{0.7, 0.8, 3},  // α=0.8 → q < 4 → 3
		{0.7, 0.7, 2},  // q < 7/3 → 2
		{0.7, 0, 2},    // q < δ/(1-δ) = 7/3 → 2
		{0.5, 0, 1},    // q < 1 floored at 1
		{1, 0, 1},      // q < +Inf: decided as 1 on every platform
	}
	for _, c := range cases {
		if got := DefaultQ(c.delta, c.alpha); got != c.want {
			t.Errorf("DefaultQ(%v, %v) = %d, want %d", c.delta, c.alpha, got, c.want)
		}
	}
}

func TestScoreThresholdAndRelatedness(t *testing.T) {
	// Containment: θ = δ|R|.
	if got := scoreThreshold(SetContainment, 0.7, 3, 10); math.Abs(got-2.1) > 1e-12 {
		t.Errorf("containment threshold = %v", got)
	}
	// Similarity: M/(|R|+|S|-M) = δ at M = δ(|R|+|S|)/(1+δ).
	tt := scoreThreshold(SetSimilarity, 0.7, 3, 4)
	if r := relatedness(SetSimilarity, tt, 3, 4); math.Abs(r-0.7) > 1e-12 {
		t.Errorf("similarity threshold inconsistent: metric at threshold = %v", r)
	}
	if r := relatedness(SetContainment, 2.1, 3, 10); math.Abs(r-0.7) > 1e-12 {
		t.Errorf("containment relatedness = %v", r)
	}
}

func TestEmptyReferenceSearch(t *testing.T) {
	eng, _ := paperEngine(t, DefaultOptions(SetSimilarity, Jaccard, 0.7, 0))
	if got := search(eng, &dataset.Set{Name: "empty"}); len(got) != 0 {
		t.Errorf("empty reference matched %d sets", len(got))
	}
}

func TestMetricAndSimKindStrings(t *testing.T) {
	if SetSimilarity.String() != "SET-SIMILARITY" || SetContainment.String() != "SET-CONTAINMENT" {
		t.Error("Metric strings broken")
	}
	if Jaccard.String() != "Jac" || Eds.String() != "Eds" || NEds.String() != "NEds" {
		t.Error("SimKind strings broken")
	}
	if Metric(9).String() == "" || SimKind(9).String() == "" {
		t.Error("unknown enum strings broken")
	}
	if Jaccard.TokenMode() != dataset.ModeWord || Eds.TokenMode() != dataset.ModeQGram {
		t.Error("TokenMode mapping broken")
	}
}

// The containment metric only considers |R| ≤ |S| (Definition 2): a large
// reference must not match smaller sets even if they contain it perfectly.
func TestContainmentSizeRequirement(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, []dataset.RawSet{
		{Name: "small", Elements: []string{"a b c"}},
	})
	eng, err := NewEngine(coll, DefaultOptions(SetContainment, Jaccard, 0.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	refColl := dataset.BuildWord(dict, []dataset.RawSet{
		{Name: "big", Elements: []string{"a b c", "d e f"}},
	})
	if got := search(eng, &refColl.Sets[0]); len(got) != 0 {
		t.Errorf("containment matched a smaller set: %+v", got)
	}
}

// Self-join discovery under SET-SIMILARITY reports each unordered pair once.
func TestDiscoverSelfJoinDedup(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, []dataset.RawSet{
		{Name: "A", Elements: []string{"x y z", "p q"}},
		{Name: "B", Elements: []string{"x y z", "p q"}},
		{Name: "C", Elements: []string{"completely different tokens"}},
	})
	eng, err := NewEngine(coll, DefaultOptions(SetSimilarity, Jaccard, 0.9, 0))
	if err != nil {
		t.Fatal(err)
	}
	pairs := discover(eng, coll)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v, want exactly one (A,B)", pairs)
	}
	if pairs[0].R >= pairs[0].S {
		t.Errorf("pair not ordered: %+v", pairs[0])
	}
}

func TestDiscoverCrossCollections(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, paperdata.CollectionS())
	eng, err := NewEngine(coll, DefaultOptions(SetContainment, Jaccard, 0.7, 0))
	if err != nil {
		t.Fatal(err)
	}
	refs := dataset.BuildWord(dict, []dataset.RawSet{paperdata.ReferenceR()})
	pairs := discover(eng, refs)
	if len(pairs) != 1 || coll.Sets[pairs[0].S].Name != "S4" {
		t.Fatalf("cross discovery = %+v, want R→S4", pairs)
	}
	want := eng.BruteForceDiscover(refs)
	if len(want) != 1 {
		t.Fatalf("oracle = %+v", want)
	}
}

func TestConcurrentDiscoverMatchesSerial(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, paperdata.CollectionS())
	serialOpts := DefaultOptions(SetSimilarity, Jaccard, 0.5, 0)
	parallelOpts := serialOpts
	parallelOpts.Concurrency = 4
	engS, err := NewEngine(coll, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	engP, err := NewEngine(coll, parallelOpts)
	if err != nil {
		t.Fatal(err)
	}
	ps := discover(engS, coll)
	pp := discover(engP, coll)
	sortPairs(ps)
	sortPairs(pp)
	if len(ps) != len(pp) {
		t.Fatalf("parallel discovery differs: %d vs %d pairs", len(pp), len(ps))
	}
	for i := range ps {
		if ps[i] != pp[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, pp[i], ps[i])
		}
	}
	// Both engines did the same logical work.
	if engS.Stats().Verified != engP.Stats().Verified {
		t.Errorf("verified counts differ: %d vs %d",
			engP.Stats().Verified, engS.Stats().Verified)
	}
}

// Determinism: identical inputs produce identical outputs across runs
// (greedy tie-breaks and map iteration must not leak into results).
func TestDiscoverDeterministic(t *testing.T) {
	run := func() []Pair {
		dict := tokens.NewDictionary()
		coll := dataset.BuildWord(dict, paperdata.CollectionS())
		eng, err := NewEngine(coll, DefaultOptions(SetSimilarity, Jaccard, 0.4, 0))
		if err != nil {
			t.Fatal(err)
		}
		ps := discover(eng, coll)
		sortPairs(ps)
		return ps
	}
	base := run()
	for i := 0; i < 5; i++ {
		got := run()
		if len(got) != len(base) {
			t.Fatalf("run %d: %d pairs vs %d", i, len(got), len(base))
		}
		for j := range got {
			if got[j] != base[j] {
				t.Fatalf("run %d pair %d differs", i, j)
			}
		}
	}
}

// When no valid signature exists (edit similarity with q ≥ δ/(1-δ), §7.3),
// the engine must fall back to a full scan and still return exact results.
func TestFullScanFallback(t *testing.T) {
	raws := []dataset.RawSet{
		{Name: "A", Elements: []string{"abcdefgh"}},
		{Name: "B", Elements: []string{"abcdefgx"}},
		{Name: "C", Elements: []string{"zzzzzzzz"}},
	}
	dict := tokens.NewDictionary()
	coll := dataset.BuildQGram(dict, raws, 8) // one chunk per element
	opts := Options{
		Metric: SetSimilarity, Sim: Eds,
		Delta: 0.75, Alpha: 0, Q: 8,
		Scheme:      signature.Dichotomy,
		CheckFilter: true, NNFilter: true,
	}
	eng, err := NewEngine(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	pairs := discover(eng, coll)
	want := eng.BruteForceDiscover(coll)
	if len(pairs) != len(want) {
		t.Fatalf("full-scan fallback diverges: %d vs %d", len(pairs), len(want))
	}
	if eng.Stats().FullScans == 0 {
		t.Error("expected full-scan fallbacks to be counted")
	}
	// Eds("abcdefgh","abcdefgx") = 15/17 → similarity 0.79 ≥ 0.75: A~B.
	if len(pairs) != 1 {
		t.Errorf("pairs = %+v, want exactly A~B", pairs)
	}
}
