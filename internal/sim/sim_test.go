package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"silkmoth/internal/tokens"
)

func toksOf(words ...string) []tokens.ID {
	d := sharedDict
	ids := tokens.InternAll(d, words)
	return tokens.SortUnique(ids)
}

var sharedDict = tokens.NewDictionary()

func TestJaccardPaperExample(t *testing.T) {
	// Jac({50, Vassar, St, MA}, {50, Vassar, Street, MA}) = 3/5 (paper §2.1).
	a := toksOf("50", "Vassar", "St", "MA")
	b := toksOf("50", "Vassar", "Street", "MA")
	got := JaccardSorted(a, b)
	if math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Jaccard = %v, want 0.6", got)
	}
}

func TestJaccardIdentical(t *testing.T) {
	a := toksOf("x", "y", "z")
	if got := JaccardSorted(a, a); got != 1 {
		t.Errorf("Jaccard(a,a) = %v, want 1", got)
	}
}

func TestJaccardDisjoint(t *testing.T) {
	a := toksOf("p", "q")
	b := toksOf("r", "s")
	if got := JaccardSorted(a, b); got != 0 {
		t.Errorf("Jaccard disjoint = %v, want 0", got)
	}
}

func TestJaccardEmpty(t *testing.T) {
	a := toksOf("p")
	if JaccardSorted(nil, a) != 0 || JaccardSorted(a, nil) != 0 || JaccardSorted(nil, nil) != 0 {
		t.Error("Jaccard with empty side should be 0")
	}
}

func TestIntersectSizeSorted(t *testing.T) {
	cases := []struct {
		a, b []tokens.ID
		want int
	}{
		{[]tokens.ID{1, 2, 3}, []tokens.ID{2, 3, 4}, 2},
		{[]tokens.ID{1}, []tokens.ID{1}, 1},
		{[]tokens.ID{}, []tokens.ID{1, 2}, 0},
		{[]tokens.ID{1, 3, 5, 7}, []tokens.ID{2, 4, 6, 8}, 0},
		{[]tokens.ID{1, 2, 3, 4}, []tokens.ID{1, 2, 3, 4}, 4},
	}
	for _, c := range cases {
		if got := IntersectSizeSorted(c.a, c.b); got != c.want {
			t.Errorf("IntersectSizeSorted(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Jaccard is symmetric and within [0, 1].
func TestJaccardProperties(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		a := make([]tokens.ID, len(ra))
		for i, v := range ra {
			a[i] = tokens.ID(v % 32)
		}
		b := make([]tokens.ID, len(rb))
		for i, v := range rb {
			b[i] = tokens.ID(v % 32)
		}
		a = tokens.SortUnique(a)
		b = tokens.SortUnique(b)
		s1 := JaccardSorted(a, b)
		s2 := JaccardSorted(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the Jaccard distance 1-Jac satisfies the triangle inequality
// (needed for the §5.3 reduction-based verification).
func TestJaccardTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randSet := func() []tokens.ID {
		n := rng.Intn(6) + 1
		ids := make([]tokens.ID, n)
		for i := range ids {
			ids[i] = tokens.ID(rng.Intn(10))
		}
		return tokens.SortUnique(ids)
	}
	for i := 0; i < 5000; i++ {
		a, b, c := randSet(), randSet(), randSet()
		dab := 1 - JaccardSorted(a, b)
		dbc := 1 - JaccardSorted(b, c)
		dac := 1 - JaccardSorted(a, c)
		if dac > dab+dbc+1e-12 {
			t.Fatalf("triangle inequality violated: d(a,c)=%v > d(a,b)+d(b,c)=%v (a=%v b=%v c=%v)",
				dac, dab+dbc, a, b, c)
		}
	}
}

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"flaw", "lawn", 2},
		{"intention", "execution", 5},
		{"a", "b", 1},
		{"ab", "ba", 2},
		{"héllo", "hello", 1}, // rune-level, not byte-level
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randString(rng *rand.Rand, n int) string {
	letters := []rune("abcdef")
	r := make([]rune, n)
	for i := range r {
		r[i] = letters[rng.Intn(len(letters))]
	}
	return string(r)
}

func TestLevenshteinBoundedMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		a := randString(rng, rng.Intn(18))
		b := randString(rng, rng.Intn(18))
		exact := Levenshtein(a, b)
		for _, maxDist := range []int{0, 1, 2, 3, 5, 8, 20} {
			got := LevenshteinBounded(a, b, maxDist)
			if exact <= maxDist {
				if got != exact {
					t.Fatalf("LevenshteinBounded(%q,%q,%d) = %d, want exact %d", a, b, maxDist, got, exact)
				}
			} else if got <= maxDist {
				t.Fatalf("LevenshteinBounded(%q,%q,%d) = %d, but exact %d exceeds bound", a, b, maxDist, got, exact)
			}
		}
	}
}

func TestLevenshteinBoundedNegative(t *testing.T) {
	if got := LevenshteinBounded("a", "a", -1); got > -1 == false {
		t.Errorf("negative maxDist should report exceeded, got %d", got)
	}
}

func TestEdsPaperExample(t *testing.T) {
	// Eds("50 Vassar St MA", "50 Vassar Street MA") = 15/19 (paper §2.1):
	// LD = 4, |x| = 15, |y| = 19 → 1 - 8/38 = 15/19.
	got := Eds("50 Vassar St MA", "50 Vassar Street MA")
	want := 15.0 / 19.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Eds = %v, want %v", got, want)
	}
}

func TestEdsIdentical(t *testing.T) {
	if Eds("same", "same") != 1 {
		t.Error("Eds of identical strings should be 1")
	}
}

func TestEdsEmpty(t *testing.T) {
	if Eds("", "") != 0 {
		t.Error("Eds(\"\",\"\") should be 0 by convention")
	}
	// One empty side: LD = |y|, Eds = 1 - 2|y|/(2|y|) = 0.
	if Eds("", "abc") != 0 {
		t.Error("Eds(\"\", abc) should be 0")
	}
}

func TestNEdsKnown(t *testing.T) {
	// NEds("abc", "abd") = 1 - 1/3 = 2/3.
	got := NEds("abc", "abd")
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("NEds = %v, want 2/3", got)
	}
	if NEds("x", "x") != 1 {
		t.Error("NEds identical should be 1")
	}
	if NEds("", "") != 0 {
		t.Error("NEds empty should be 0")
	}
}

// Property: Eds and NEds are symmetric, within [0,1], and NEds ≤ Eds never
// holds in general but both are 1 iff equal strings (for nonempty inputs).
func TestEditSimilarityProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a := randString(rng, rng.Intn(12)+1)
		b := randString(rng, rng.Intn(12)+1)
		e1, e2 := Eds(a, b), Eds(b, a)
		n1, n2 := NEds(a, b), NEds(b, a)
		if e1 != e2 || n1 != n2 {
			t.Fatalf("asymmetric edit similarity for %q, %q", a, b)
		}
		if e1 < 0 || e1 > 1 || n1 < 0 || n1 > 1 {
			t.Fatalf("edit similarity out of range for %q, %q: %v, %v", a, b, e1, n1)
		}
		if (e1 == 1) != (a == b) {
			t.Fatalf("Eds==1 must hold iff strings equal: %q, %q", a, b)
		}
	}
}

// Property: the dual distance 1-Eds satisfies the triangle inequality
// (paper §5.3 relies on this for the reduction-based verification).
func TestEdsTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		a := randString(rng, rng.Intn(8)+1)
		b := randString(rng, rng.Intn(8)+1)
		c := randString(rng, rng.Intn(8)+1)
		dab := 1 - Eds(a, b)
		dbc := 1 - Eds(b, c)
		dac := 1 - Eds(a, c)
		if dac > dab+dbc+1e-12 {
			t.Fatalf("1-Eds triangle inequality violated: %q %q %q", a, b, c)
		}
	}
}

func TestAlpha(t *testing.T) {
	if Alpha(0.5, 0.6) != 0 {
		t.Error("Alpha should zero out sub-threshold scores")
	}
	if Alpha(0.7, 0.6) != 0.7 {
		t.Error("Alpha should pass through above-threshold scores")
	}
	if Alpha(0.6, 0.6) != 0.6 {
		t.Error("Alpha at exactly the threshold should pass through")
	}
	if Alpha(0.3, 0) != 0.3 {
		t.Error("Alpha with α=0 should be the identity")
	}
}

func TestEdsAlphaMatchesEds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a := randString(rng, rng.Intn(15))
		b := randString(rng, rng.Intn(15))
		for _, alpha := range []float64{0, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0} {
			want := Alpha(Eds(a, b), alpha)
			got := EdsAlpha(a, b, alpha)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("EdsAlpha(%q,%q,%v) = %v, want %v", a, b, alpha, got, want)
			}
		}
	}
}

func TestNEdsAlphaMatchesNEds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		a := randString(rng, rng.Intn(15))
		b := randString(rng, rng.Intn(15))
		for _, alpha := range []float64{0, 0.3, 0.5, 0.7, 0.9} {
			want := Alpha(NEds(a, b), alpha)
			got := NEdsAlpha(a, b, alpha)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("NEdsAlpha(%q,%q,%v) = %v, want %v", a, b, alpha, got, want)
			}
		}
	}
}

// TestRuneLen holds the ASCII fast path to utf8.RuneCountInString around
// its eight-byte blocks, with the first non-ASCII byte at every offset.
func TestRuneLen(t *testing.T) {
	for n := 0; n <= 20; n++ {
		for at := -1; at < n; at++ {
			b := []byte(strings.Repeat("a", n))
			s := string(b)
			if at >= 0 {
				s = string(b[:at]) + "é" + string(b[at+1:])
			}
			if got, want := runeLen(s), utf8.RuneCountInString(s); got != want {
				t.Fatalf("runeLen(%q) = %d, want %d", s, got, want)
			}
		}
	}
}
