package silkmoth

import (
	"context"
	"math"
	"strings"
	"testing"
)

// mustDiscover runs a self-join discovery on eng and fails the test on any
// error, so that two discoveries that both failed can never agree.
func mustDiscover(t testing.TB, eng *Engine, opts ...QueryOption) []Pair {
	t.Helper()
	ps, err := eng.DiscoverContext(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// table1Sets mirrors the paper's Table 1: two address columns that refer to
// the same entities with dirty values.
func table1Sets() (location, address Set) {
	location = Set{Name: "Location", Elements: []string{
		"77 Mass Ave Boston MA",
		"5th St 02115 Seattle WA",
		"77 5th St Chicago IL",
	}}
	address = Set{Name: "Address", Elements: []string{
		"77 Massachusetts Avenue Boston MA",
		"Fifth Street Seattle MA 02115",
		"77 Fifth Street Chicago IL",
		"One Kendall Square Cambridge MA",
	}}
	return
}

func TestQuickstartDiscover(t *testing.T) {
	location, address := table1Sets()
	eng, err := NewEngine([]Set{location, address}, Config{
		Metric:     SetContainment,
		Similarity: Jaccard,
		Delta:      0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := mustDiscover(t, eng)
	// Location (3 elems) is approximately contained in Address (4 elems):
	// matching 3/7 + 2/8 + 3/7 ≈ 1.107, containment ≈ 0.369 < 0.4 — so at
	// 0.4 nothing matches; at 0.3 the pair appears. Verify both.
	if len(pairs) != 0 {
		t.Fatalf("at δ=0.4 expected no pairs, got %+v", pairs)
	}
	eng2, err := NewEngine([]Set{location, address}, Config{
		Metric:     SetContainment,
		Similarity: Jaccard,
		Delta:      0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs = mustDiscover(t, eng2)
	if len(pairs) != 1 {
		t.Fatalf("at δ=0.3 expected the Location⊑Address pair, got %+v", pairs)
	}
	p := pairs[0]
	if p.RName != "Location" || p.SName != "Address" {
		t.Errorf("pair = %+v", p)
	}
	if p.Relatedness < 0.3 || p.Relatedness > 1 {
		t.Errorf("relatedness = %v", p.Relatedness)
	}
}

func TestSearchReturnsSorted(t *testing.T) {
	sets := []Set{
		{Name: "exact", Elements: []string{"a b c", "d e f"}},
		{Name: "close", Elements: []string{"a b c", "d e g"}},
		{Name: "far", Elements: []string{"x y", "z w"}},
	}
	eng, err := NewEngine(sets, Config{Similarity: Jaccard, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := eng.SearchContext(context.Background(), Set{Elements: []string{"a b c", "d e f"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("matches = %+v", ms)
	}
	if ms[0].Name != "exact" || ms[1].Name != "close" {
		t.Errorf("order = %s, %s", ms[0].Name, ms[1].Name)
	}
	if ms[0].Relatedness != 1 {
		t.Errorf("exact relatedness = %v", ms[0].Relatedness)
	}
	if ms[0].MatchingScore != 2 {
		t.Errorf("exact matching score = %v", ms[0].MatchingScore)
	}
}

func TestEditSimilarityEngine(t *testing.T) {
	sets := []Set{
		{Name: "t1", Elements: []string{"Database", "Systems"}},
		{Name: "t2", Elements: []string{"Databose", "Systens"}}, // typos
		{Name: "t3", Elements: []string{"Quantum", "Physics"}},
	}
	eng, err := NewEngine(sets, Config{
		Similarity: Eds,
		Delta:      0.7,
		Alpha:      0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := mustDiscover(t, eng)
	if len(pairs) != 1 || pairs[0].RName != "t1" || pairs[0].SName != "t2" {
		t.Errorf("edit pairs = %+v", pairs)
	}
}

// TestEditSimilarityDeltaOne: at δ = 1 the gram-length bound δ/(1-δ) is
// infinite, and engines under both edit similarities still build and
// answer, as does an Eds Compare handed a zero Delta (which it runs at 1).
func TestEditSimilarityDeltaOne(t *testing.T) {
	sets := []Set{
		{Name: "t1", Elements: []string{"Database", "Systems"}},
		{Name: "t2", Elements: []string{"Database", "Systems"}},
		{Name: "t3", Elements: []string{"Databose", "Systens"}},
	}
	for _, sim := range []Similarity{Eds, NEds} {
		eng, err := NewEngine(sets, Config{Similarity: sim, Delta: 1})
		if err != nil {
			t.Fatalf("%v: %v", sim, err)
		}
		pairs := mustDiscover(t, eng)
		if len(pairs) != 1 || pairs[0].RName != "t1" || pairs[0].SName != "t2" {
			t.Errorf("%v at δ = 1: pairs = %+v, want only the identical t1, t2", sim, pairs)
		}
	}
	rel, err := Compare(sets[0], sets[1], Config{Similarity: Eds})
	if err != nil || rel != 1 {
		t.Fatalf("Compare of identical sets = %v, %v; want 1", rel, err)
	}
}

func TestDiscoverAgainst(t *testing.T) {
	location, address := table1Sets()
	eng, err := NewEngine([]Set{address}, Config{
		Metric:     SetContainment,
		Similarity: Jaccard,
		Delta:      0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := eng.DiscoverAgainstContext(context.Background(), []Set{location})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].RName != "Location" || pairs[0].SName != "Address" {
		t.Errorf("cross pairs = %+v", pairs)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(nil, Config{}); err == nil {
		t.Error("zero Delta should fail")
	}
	if _, err := NewEngine(nil, Config{Delta: 2}); err == nil {
		t.Error("Delta > 1 should fail")
	}
	if _, err := NewEngine(nil, Config{Delta: 0.5, Metric: Metric(9)}); err == nil {
		t.Error("unknown metric should fail")
	}
	if _, err := NewEngine(nil, Config{Delta: 0.5, Similarity: Similarity(9)}); err == nil {
		t.Error("unknown similarity should fail")
	}
	if _, err := NewEngine(nil, Config{Delta: 0.5, Scheme: Scheme(9)}); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestAllSchemesAgree(t *testing.T) {
	location, address := table1Sets()
	sets := []Set{location, address,
		{Name: "noise", Elements: []string{"aa bb", "cc dd"}}}
	var counts []int
	for _, scheme := range []Scheme{SchemeDichotomy, SchemeSkyline, SchemeWeighted, SchemeCombUnweighted} {
		eng, err := NewEngine(sets, Config{
			Metric: SetContainment, Similarity: Jaccard,
			Delta: 0.3, Scheme: scheme,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(mustDiscover(t, eng)))
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("schemes disagree: %v", counts)
		}
	}
}

func TestStatsExposed(t *testing.T) {
	location, address := table1Sets()
	eng, err := NewEngine([]Set{location, address}, Config{
		Similarity: Jaccard, Delta: 0.3, Metric: SetContainment,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustDiscover(t, eng)
	st := eng.Stats()
	if st.SearchPasses == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLenAndSetName(t *testing.T) {
	eng, err := NewEngine([]Set{{Name: "only", Elements: []string{"x"}}}, Config{Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 1 || eng.SetName(0) != "only" {
		t.Error("Len/SetName broken")
	}
}

// TestSetNameOutOfRange: an id the engine never assigned names nothing, it
// does not panic; a deleted set's id stays assigned and keeps its name.
func TestSetNameOutOfRange(t *testing.T) {
	eng, err := NewEngine([]Set{{Name: "a", Elements: []string{"x"}}, {Name: "b", Elements: []string{"y"}}}, Config{Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 2, math.MaxInt, math.MinInt} {
		if name := eng.SetName(id); name != "" {
			t.Errorf("SetName(%d) = %q, want \"\"", id, name)
		}
	}
	if err := eng.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Add([]Set{{Name: "c", Elements: []string{"z"}}}); err != nil {
		t.Fatal(err)
	}
	if got := []string{eng.SetName(1), eng.SetName(2), eng.SetName(3)}; got[0] != "b" || got[1] != "c" || got[2] != "" {
		t.Errorf("after Delete(1) and Add: SetName(1..3) = %q, want [b c \"\"]", got)
	}
}

func TestAlphaThresholdChangesResults(t *testing.T) {
	// Two sets whose elements overlap weakly: with α = 0 the weak edges
	// accumulate past δ; with a high α they vanish.
	a := Set{Name: "A", Elements: []string{"p q r s", "t u v w"}}
	b := Set{Name: "B", Elements: []string{"p q x y", "t u z k"}}
	lowAlpha, err := NewEngine([]Set{a, b}, Config{Delta: 0.2, Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	highAlpha, err := NewEngine([]Set{a, b}, Config{Delta: 0.2, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(mustDiscover(t, lowAlpha)) != 1 {
		t.Error("α=0 should relate A and B (each element pair has Jaccard 1/3)")
	}
	if len(mustDiscover(t, highAlpha)) != 0 {
		t.Error("α=0.9 should zero the weak similarities")
	}
}

func TestMatchRelatednessRange(t *testing.T) {
	location, address := table1Sets()
	eng, err := NewEngine([]Set{location, address}, Config{
		Metric: SetContainment, Similarity: Jaccard, Delta: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := eng.SearchContext(context.Background(), location)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Relatedness < 0.3-1e-9 || m.Relatedness > 1+1e-9 {
			t.Errorf("relatedness out of range: %+v", m)
		}
		if math.IsNaN(m.MatchingScore) {
			t.Errorf("NaN score: %+v", m)
		}
	}
}

func TestEmptyCollection(t *testing.T) {
	eng, err := NewEngine(nil, Config{Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if pairs := mustDiscover(t, eng); len(pairs) != 0 {
		t.Errorf("empty collection pairs = %+v", pairs)
	}
	ms, err := eng.SearchContext(context.Background(), Set{Elements: []string{"anything"}})
	if err != nil || len(ms) != 0 {
		t.Errorf("empty collection search = %v, %v", ms, err)
	}
}

func TestNamesPreserved(t *testing.T) {
	sets := []Set{
		{Name: "with spaces in name", Elements: []string{"a b"}},
		{Name: strings.Repeat("long", 50), Elements: []string{"a b"}},
	}
	eng, err := NewEngine(sets, Config{Delta: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	pairs := mustDiscover(t, eng)
	if len(pairs) != 1 || pairs[0].RName != sets[0].Name || pairs[0].SName != sets[1].Name {
		t.Errorf("names mangled: %+v", pairs)
	}
}
