package signature

import (
	"math"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/paperdata"
	"silkmoth/internal/tokens"
)

// paperSetup tokenizes Table 2's collection S, builds its inverted index,
// and tokenizes the reference R against the same dictionary.
func paperSetup(t *testing.T) (*dataset.Set, *index.Inverted, *tokens.Dictionary) {
	t.Helper()
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, paperdata.CollectionS())
	ix := index.Build(coll)
	refColl := dataset.BuildWord(dict, []dataset.RawSet{paperdata.ReferenceR()})
	return &refColl.Sets[0], ix, dict
}

// tokenNames maps signature token ids back to strings for assertions.
func tokenNames(d *tokens.Dictionary, ids []tokens.ID) map[string]bool {
	out := make(map[string]bool, len(ids))
	for _, id := range ids {
		out[d.String(id)] = true
	}
	return out
}

func TestWeightedSchemeConditionHolds(t *testing.T) {
	r, ix, _ := paperSetup(t)
	p := Params{Delta: 0.7}
	sig := Generate(Weighted, r, p, ix)
	if !sig.Valid {
		t.Fatal("weighted signature must always be valid under Jaccard")
	}
	theta := p.Theta(len(r.Elements))
	if sig.SumBound >= theta {
		t.Errorf("weighted condition violated: SumBound %v >= θ %v", sig.SumBound, theta)
	}
	// The paper's Example 7 heuristic reaches total inverted-list cost
	// 1+1+1+3+3 = 9; the greedy must not do worse than that on this input.
	cost := 0
	for _, id := range sig.TokenSet() {
		cost += ix.ListLen(id)
	}
	if cost > 9 {
		t.Errorf("greedy cost = %d, paper's heuristic achieves 9", cost)
	}
}

func TestWeightedBoundsMatchDefinition(t *testing.T) {
	r, ix, _ := paperSetup(t)
	sig := Generate(Weighted, r, Params{Delta: 0.7}, ix)
	for i, es := range sig.Elements {
		n := r.Elements[i].Length(dataset.ModeWord)
		want := float64(n-len(es.Tokens)) / float64(n)
		if math.Abs(es.Bound-want) > 1e-12 {
			t.Errorf("element %d bound = %v, want (|r|-|k|)/|r| = %v", i, es.Bound, want)
		}
	}
}

// Paper Example 13: dichotomy with α = δ = 0.7 on Table 2 yields the flat
// signature {t11, t12} = {Chicago, IL}.
func TestDichotomyPaperExample13(t *testing.T) {
	r, ix, dict := paperSetup(t)
	sig := Generate(Dichotomy, r, Params{Delta: 0.7, Alpha: 0.7}, ix)
	if !sig.Valid {
		t.Fatal("dichotomy signature should be valid")
	}
	names := tokenNames(dict, sig.TokenSet())
	if len(names) != 2 || !names["Chicago"] || !names["IL"] {
		t.Errorf("dichotomy signature = %v, want {Chicago, IL}", names)
	}
	// r3 saturated: bound 0; r1 and r2 contribute 1 each; 2 < θ = 2.1.
	if sig.Elements[2].Bound != 0 {
		t.Errorf("r3 should be saturated, bound = %v", sig.Elements[2].Bound)
	}
	if math.Abs(sig.SumBound-2.0) > 1e-12 {
		t.Errorf("SumBound = %v, want 2.0", sig.SumBound)
	}
}

// Example 10's sim-thresh size: α = 0.7 and |r| = 5 → ⌊0.3·5⌋+1 = 2.
func TestSimThreshSizeJaccard(t *testing.T) {
	size, ok := simThreshSize(FamilyJaccard, 0.7, 5, 5)
	if !ok || size != 2 {
		t.Errorf("simThreshSize = %d,%v; want 2,true", size, ok)
	}
	// α = 0 never saturates.
	if _, ok := simThreshSize(FamilyJaccard, 0, 5, 5); ok {
		t.Error("α=0 must not saturate")
	}
	// Empty elements never saturate.
	if _, ok := simThreshSize(FamilyJaccard, 0.7, 0, 0); ok {
		t.Error("empty element must not saturate")
	}
	// Requirement above availability fails.
	if _, ok := simThreshSize(FamilyJaccard, 0.1, 10, 5); ok {
		t.Error("size beyond availability must not saturate")
	}
}

func TestSimThreshSizeEdit(t *testing.T) {
	// α = 0.8, |r| = 12 → ⌊0.25·12⌋+1 = 4 chunk occurrences.
	size, ok := simThreshSize(FamilyEdit, 0.8, 12, 4)
	if !ok || size != 4 {
		t.Errorf("edit simThreshSize = %d,%v; want 4,true", size, ok)
	}
	// With only 3 chunks available it is unattainable.
	if _, ok := simThreshSize(FamilyEdit, 0.8, 12, 3); ok {
		t.Error("edit saturation should be unattainable with too few chunks")
	}
}

func TestSkylineReducesToWeightedAtAlphaZero(t *testing.T) {
	r, ix, _ := paperSetup(t)
	w := Generate(Weighted, r, Params{Delta: 0.7}, ix)
	s := Generate(Skyline, r, Params{Delta: 0.7, Alpha: 0}, ix)
	d := Generate(Dichotomy, r, Params{Delta: 0.7, Alpha: 0}, ix)
	ws, ss, ds := w.TokenSet(), s.TokenSet(), d.TokenSet()
	if len(ws) != len(ss) || len(ws) != len(ds) {
		t.Fatalf("schemes should coincide at α=0: %v %v %v", ws, ss, ds)
	}
	for i := range ws {
		if ws[i] != ss[i] || ws[i] != ds[i] {
			t.Fatalf("schemes diverge at α=0: %v %v %v", ws, ss, ds)
		}
	}
}

func TestSkylineCutZeroesBounds(t *testing.T) {
	r, ix, _ := paperSetup(t)
	p := Params{Delta: 0.7, Alpha: 0.7}
	sig := Generate(Skyline, r, p, ix)
	if !sig.Valid {
		t.Fatal("skyline should be valid")
	}
	theta := p.Theta(len(r.Elements))
	if sig.SumBound >= theta {
		t.Errorf("skyline SumBound %v >= θ %v", sig.SumBound, theta)
	}
	// Any element with ≥ satSize (=2) signature tokens must be cut to
	// exactly the cheapest 2 and have bound 0.
	for i, es := range sig.Elements {
		if len(es.Tokens) >= 2 && es.Bound != 0 {
			t.Errorf("element %d with %d tokens should have bound 0, got %v",
				i, len(es.Tokens), es.Bound)
		}
		if len(es.Tokens) > 2 {
			t.Errorf("element %d not cut: %d tokens", i, len(es.Tokens))
		}
	}
}

func TestCombUnweightedValid(t *testing.T) {
	r, ix, _ := paperSetup(t)
	sig := Generate(CombUnweighted, r, Params{Delta: 0.7}, ix)
	if !sig.Valid {
		t.Fatal("comb-unweighted should be valid under Jaccard")
	}
	// c-1 = ⌈2.1⌉-1 = 2 occurrences removed from 15: at least 13 remain.
	total := 0
	for _, es := range sig.Elements {
		total += len(es.Tokens)
	}
	if total < 13 {
		t.Errorf("comb-unweighted removed too much: %d tokens left", total)
	}
	// Example 5: removing t11 and t12 is not what the longest-list greedy
	// does; it removes the two most frequent occurrences (t1 twice or
	// t1+t2). Either way the two occurrences with the longest lists go.
	if total > 13 {
		t.Errorf("comb-unweighted removed too little: %d tokens left", total)
	}
}

func TestCombUnweightedEditRequiresAlpha(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildQGram(dict, []dataset.RawSet{
		{Name: "S", Elements: []string{"Database", "Systems"}},
	}, 3)
	ix := index.Build(coll)
	refColl := dataset.BuildQGram(dict, []dataset.RawSet{
		{Name: "R", Elements: []string{"Databases", "System"}},
	}, 3)
	r := &refColl.Sets[0]
	// α = 0: positive Eds does not imply a shared gram → invalid.
	sig := Generate(CombUnweighted, r, Params{Delta: 0.8, Alpha: 0, Family: FamilyEdit}, ix)
	if sig.Valid {
		t.Error("comb-unweighted must be invalid for edit similarity at α=0")
	}
	// q = 3 ≥ α/(1-α) = 7/3 at α = 0.7 → invalid.
	sig = Generate(CombUnweighted, r, Params{Delta: 0.8, Alpha: 0.7, Family: FamilyEdit}, ix)
	if sig.Valid {
		t.Error("comb-unweighted must be invalid when q ≥ α/(1-α)")
	}
	// α = 0.8 → q < 4: q = 3 is fine.
	sig = Generate(CombUnweighted, r, Params{Delta: 0.8, Alpha: 0.8, Family: FamilyEdit}, ix)
	if !sig.Valid {
		t.Error("comb-unweighted should be valid at α=0.8, q=3")
	}
}

func TestEditWeightedScheme(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildQGram(dict, []dataset.RawSet{
		{Name: "S1", Elements: []string{"Database Systems", "Concepts"}},
		{Name: "S2", Elements: []string{"Databose Systems", "Concapts"}},
	}, 2)
	ix := index.Build(coll)
	refColl := dataset.BuildQGram(dict, []dataset.RawSet{
		{Name: "R", Elements: []string{"Database Systems", "Concepts"}},
	}, 2)
	r := &refColl.Sets[0]
	p := Params{Delta: 0.7, Family: FamilyEdit}
	sig := Generate(Weighted, r, p, ix)
	if !sig.Valid {
		t.Fatal("q=2 < δ/(1-δ)=2.33 should admit a valid signature (§7.3)")
	}
	theta := p.Theta(len(r.Elements))
	if sig.SumBound >= theta {
		t.Errorf("edit weighted condition violated: %v >= %v", sig.SumBound, theta)
	}
	// Per Definition 11 the per-element bound is |r|/(|r|+k).
	for i, es := range sig.Elements {
		el := &r.Elements[i]
		if len(es.Tokens) == 0 {
			continue
		}
		if es.Bound >= 1 || es.Bound <= 0 {
			t.Errorf("element %d bound %v out of (0,1)", i, es.Bound)
		}
		if n := el.Length(dataset.ModeQGram); es.Bound < float64(n)/float64(n+len(r.Chunks(i))) {
			t.Errorf("element %d bound below the all-chunks floor", i)
		}
	}
}

// §7.3: when q ≥ δ/(1-δ), the weighted scheme for edit similarity can be
// empty and the signature must be reported invalid.
func TestEditWeightedInfeasibleLargeQ(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildQGram(dict, []dataset.RawSet{
		{Name: "S1", Elements: []string{"abcdefgh", "ijklmnop"}},
	}, 8)
	ix := index.Build(coll)
	refColl := dataset.BuildQGram(dict, []dataset.RawSet{
		{Name: "R", Elements: []string{"abcdefgh", "ijklmnop"}},
	}, 8)
	r := &refColl.Sets[0]
	// With q=8 and |r|=8 there is one chunk per element, so even picking
	// every chunk leaves Σ|r|/(|r|+k) = 2·(8/9) ≈ 1.78 ≥ θ = 0.85·2 = 1.7:
	// the weighted scheme is empty (q ≥ δ/(1-δ) ≈ 5.7, §7.3) → infeasible.
	sig := Generate(Weighted, r, Params{Delta: 0.85, Family: FamilyEdit}, ix)
	if sig.Valid {
		t.Errorf("expected infeasible signature, got SumBound %v", sig.SumBound)
	}
}

func TestEmptyReferenceSet(t *testing.T) {
	_, ix, _ := paperSetup(t)
	empty := &dataset.Set{Name: "empty"}
	sig := Generate(Weighted, empty, Params{Delta: 0.7}, ix)
	// θ = 0 and SumBound = 0: 0 < 0 is false → invalid: the engine falls
	// back to scanning, where nothing can be related anyway.
	if sig.Valid {
		t.Error("empty set signature should be invalid (θ = 0)")
	}
}

func TestSetWithEmptyElements(t *testing.T) {
	_, ix, dict := paperSetup(t)
	refColl := dataset.BuildWord(dict, []dataset.RawSet{
		{Name: "R", Elements: []string{"77 Mass Ave", "", "5th St"}},
	})
	r := &refColl.Sets[0]
	sig := Generate(Weighted, r, Params{Delta: 0.5}, ix)
	if !sig.Valid {
		t.Fatal("signature should be valid")
	}
	if sig.Elements[1].Bound != 0 || len(sig.Elements[1].Tokens) != 0 {
		t.Errorf("empty element should have no tokens and bound 0: %+v", sig.Elements[1])
	}
}

// A reference whose δ is high but whose elements are few: when the number of
// non-empty elements already falls below θ, the empty signature is valid and
// no set can be related.
func TestAllEmptyElementsBelowTheta(t *testing.T) {
	_, ix, dict := paperSetup(t)
	refColl := dataset.BuildWord(dict, []dataset.RawSet{
		{Name: "R", Elements: []string{"", "", "77"}},
	})
	r := &refColl.Sets[0]
	sig := Generate(Weighted, r, Params{Delta: 0.7}, ix)
	// θ = 2.1 but only one non-empty element: SumBound ≤ 1 < 2.1 with no
	// tokens at all.
	if !sig.Valid {
		t.Fatal("signature should be valid")
	}
	if len(sig.TokenSet()) != 0 {
		t.Errorf("expected empty signature, got %v", sig.TokenSet())
	}
}

func TestKindString(t *testing.T) {
	if Weighted.String() != "WEIGHTED" || CombUnweighted.String() != "COMBUNWEIGHTED" ||
		Skyline.String() != "SKYLINE" || Dichotomy.String() != "DICHOTOMY" {
		t.Error("Kind.String broken")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestGenerateUnknownKindPanics(t *testing.T) {
	r, ix, _ := paperSetup(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown kind")
		}
	}()
	Generate(Kind(42), r, Params{Delta: 0.7}, ix)
}

func TestThetaHelper(t *testing.T) {
	p := Params{Delta: 0.7}
	if p.Theta(3) != 2.1 && math.Abs(p.Theta(3)-2.1) > 1e-12 {
		t.Errorf("Theta(3) = %v", p.Theta(3))
	}
}
