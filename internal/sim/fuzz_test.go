package sim

import (
	"math"
	"testing"
	"unicode/utf8"

	"silkmoth/internal/tokens"
)

// FuzzLevenshteinBoundedMatchesUnbounded pins the exact contract of the
// bounded kernel for every d ≥ 0 on arbitrary Unicode (and invalid UTF-8)
// inputs:
//
//	LevenshteinBounded(a, b, d) == min(Levenshtein(a, b), d+1)
//
// — not merely "exceeded implies > d". The same contract is enforced on the
// retained scalar reference, so a divergence in either kernel's band-edge
// maintenance or early abandonment fails loudly. Negative d is pinned to
// the documented always-exceeded convention (returns d+1 ≤ 0).
func FuzzLevenshteinBoundedMatchesUnbounded(f *testing.F) {
	f.Add("kitten", "sitting", 3)
	f.Add("", "abc", 0)
	f.Add("héllo", "hello", 1)
	f.Add("aaaa", "aaab", 10)
	f.Add("日本語データベース", "日本語テープ", 2)
	f.Add("\x00\x1f", "\x1f\x00", 2)
	f.Add("abcabc", "abcabc", -1)
	// Multi-byte runes: byte length and rune length differ, so a length
	// pre-test on the wrong one would reject (or keep) the wrong pairs.
	f.Add("ääääää", "ä", 4)
	f.Add("ä", "ääääää", 5)
	f.Add("日本語データベース", "データ", 5)
	// maxDist ≥ the longer rune length: the bound never binds.
	f.Add("日本語", "本語データ", 5)
	f.Add("naïve", "", 5)
	f.Fuzz(func(t *testing.T, a, b string, d int) {
		if len(a) > 96 {
			a = a[:96]
		}
		if len(b) > 96 {
			b = b[:96]
		}
		// The contract's interesting range is d ∈ [-2, max(len)+2]; larger
		// bounds never bind and smaller ones are clamped in.
		limit := len(a) + 2
		if len(b)+2 > limit {
			limit = len(b) + 2
		}
		if d > limit || d < -2 {
			d = ((d%limit)+limit)%limit - 2
		}
		la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
		if d < 0 {
			for _, got := range []int{LevenshteinBounded(a, b, d), levenshteinBoundedLen(a, b, la, lb, d), LevenshteinBoundedRef(a, b, d)} {
				if got != d+1 {
					t.Fatalf("LevenshteinBounded(%q,%q,%d) = %d, want always-exceeded %d", a, b, d, got, d+1)
				}
			}
			return
		}
		exact := LevenshteinRef(a, b)
		want := exact
		if d+1 < want {
			want = d + 1
		}
		if got := LevenshteinBounded(a, b, d); got != want {
			t.Fatalf("LevenshteinBounded(%q,%q,%d) = %d, want min(exact=%d, d+1)=%d", a, b, d, got, exact, want)
		}
		if got := LevenshteinBoundedRef(a, b, d); got != want {
			t.Fatalf("LevenshteinBoundedRef(%q,%q,%d) = %d, want min(exact=%d, d+1)=%d", a, b, d, got, exact, want)
		}
		// The length-taking entry point decides on the lengths before it
		// decodes; both argument orders take the swap and the no-swap side.
		if got := levenshteinBoundedLen(a, b, la, lb, d); got != want {
			t.Fatalf("levenshteinBoundedLen(%q,%q,%d,%d,%d) = %d, want %d", a, b, la, lb, d, got, want)
		}
		if got := levenshteinBoundedLen(b, a, lb, la, d); got != want {
			t.Fatalf("levenshteinBoundedLen(%q,%q,%d,%d,%d) = %d, want %d", b, a, lb, la, d, got, want)
		}
	})
}

// edsAlphaRef and nedsAlphaRef are EdsAlpha and NEdsAlpha as they stood
// before the length-taking entry points: both rune counts taken here, the
// distance from the scalar bounded reference. The differential below pins
// the new functions to them bit for bit.
func edsAlphaRef(x, y string, alpha float64) float64 {
	if alpha <= 0 {
		return Eds(x, y)
	}
	lx, ly := utf8.RuneCountInString(x), utf8.RuneCountInString(y)
	if lx == 0 && ly == 0 {
		return 0
	}
	maxDist := int((1-alpha)*float64(lx+ly)/(1+alpha)) + 1
	ld := LevenshteinBoundedRef(x, y, maxDist)
	if ld > maxDist {
		return 0
	}
	return Alpha(1-2*float64(ld)/float64(lx+ly+ld), alpha)
}

func nedsAlphaRef(x, y string, alpha float64) float64 {
	if alpha <= 0 {
		return NEds(x, y)
	}
	m := max(utf8.RuneCountInString(x), utf8.RuneCountInString(y))
	if m == 0 {
		return 0
	}
	maxDist := int((1-alpha)*float64(m)) + 1
	ld := LevenshteinBoundedRef(x, y, maxDist)
	if ld > maxDist {
		return 0
	}
	return Alpha(1-float64(ld)/float64(m), alpha)
}

// FuzzLevenshteinMatchesRef pins the bit-parallel unbounded kernel (both
// the single-word and the blocked multi-word path — inputs exceed 64 runes)
// to the scalar reference dynamic program.
func FuzzLevenshteinMatchesRef(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "")
	f.Add("日本語", "日本")
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
		"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 160 {
			a = a[:160]
		}
		if len(b) > 160 {
			b = b[:160]
		}
		if got, want := Levenshtein(a, b), LevenshteinRef(a, b); got != want {
			t.Fatalf("Levenshtein(%q,%q) = %d, ref = %d", a, b, got, want)
		}
	})
}

// FuzzIntersectSizeSorted pins the adaptive intersection (galloping and
// block-merge kernels, both cutover sides) to the linear-merge reference on
// arbitrary sorted deduplicated inputs.
func FuzzIntersectSizeSorted(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{9})
	f.Add([]byte{7}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		a := make([]tokens.ID, len(ra))
		for i, v := range ra {
			a[i] = tokens.ID(v)
		}
		b := make([]tokens.ID, len(rb))
		for i, v := range rb {
			b[i] = tokens.ID(v)
		}
		a = tokens.SortUnique(a)
		b = tokens.SortUnique(b)
		want := IntersectSizeSortedRef(a, b)
		if got := IntersectSizeSorted(a, b); got != want {
			t.Fatalf("IntersectSizeSorted(%v,%v) = %d, ref = %d", a, b, got, want)
		}
		if got := IntersectSizeSorted(b, a); got != want {
			t.Fatalf("IntersectSizeSorted(%v,%v) = %d, ref = %d (swapped)", b, a, got, want)
		}
	})
}

// FuzzOverlapFormulas pins the three token-based similarities as functions
// of sizes alone: XFromOverlap(|a∩b|, |a|, |b|), with the intersection taken
// by the linear-merge reference, must be bit-equal to XSorted(a, b) — what
// the engine's counting paths rely on when they read |a∩b| off the inverted
// index — and to the formula written out here, including empty sides.
func FuzzOverlapFormulas(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{9})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{5, 6}, []byte{5, 6})
	f.Add([]byte{7}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		a := make([]tokens.ID, len(ra))
		for i, v := range ra {
			a[i] = tokens.ID(v)
		}
		b := make([]tokens.ID, len(rb))
		for i, v := range rb {
			b[i] = tokens.ID(v)
		}
		a, b = tokens.SortUnique(a), tokens.SortUnique(b)
		inter, la, lb := IntersectSizeSortedRef(a, b), len(a), len(b)
		written := [3]float64{} // an empty side scores 0 under all three
		if la > 0 && lb > 0 {
			written = [3]float64{
				float64(inter) / float64(la+lb-inter),
				2 * float64(inter) / float64(la+lb),
				float64(inter) / math.Sqrt(float64(la)*float64(lb)),
			}
		}
		for k, c := range []struct {
			name        string
			fromOverlap OverlapFunc
			sorted      func(a, b []tokens.ID) float64
		}{
			{"Jaccard", JaccardFromOverlap, JaccardSorted},
			{"Dice", DiceFromOverlap, DiceSorted},
			{"Cosine", CosineFromOverlap, CosineSorted},
		} {
			got := c.fromOverlap(inter, la, lb)
			for _, want := range []float64{c.sorted(a, b), c.sorted(b, a), c.fromOverlap(inter, lb, la), written[k]} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%sFromOverlap(%d,%d,%d) = %v, but %v from the kernel or the written formula (a=%v b=%v)",
						c.name, inter, la, lb, got, want, a, b)
				}
			}
		}
	})
}

// FuzzOverlapBound pins what the check filter's count bound rests on
// (filter.Collector.CountOverlaps). For duplicate-free sorted a and b and
// any L ⊆ a, an element b holds c = |L∩b| of L's tokens, so |a∩b| is at
// most min(c + |a| − |L|, |b|), and each formula at that overlap — and
// after the α cut — is at least the kernel's value; with L = a it is the
// kernel's value bit for bit. The bound is only sound because the formulas
// never fall as the overlap grows, in floating point: that is checked over
// every overlap up to |b|, which is as far as the collector's guard for a
// signature outside its element can push it.
func FuzzOverlapBound(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, []byte{0b101}, byte(128))
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 3}, []byte{0xff}, byte(0))
	f.Add([]byte{}, []byte{9}, []byte{}, byte(200))
	f.Add([]byte{7}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, []byte{1}, byte(77))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{3}, []byte{0, 0}, byte(255))
	f.Fuzz(func(t *testing.T, ra, rb, mask []byte, alphaByte byte) {
		a := make([]tokens.ID, len(ra))
		for i, v := range ra {
			a[i] = tokens.ID(v)
		}
		b := make([]tokens.ID, len(rb))
		for i, v := range rb {
			b[i] = tokens.ID(v)
		}
		a, b = tokens.SortUnique(a), tokens.SortUnique(b)
		var l []tokens.ID // the tokens of a the mask selects
		for i, tok := range a {
			if i/8 < len(mask) && mask[i/8]&(1<<(i%8)) != 0 {
				l = append(l, tok)
			}
		}
		alpha := float64(alphaByte) / 256
		la, lb := len(a), len(b)
		for _, c := range []struct {
			name        string
			fromOverlap OverlapFunc
			sorted      func(a, b []tokens.ID) float64
		}{
			{"Jaccard", JaccardFromOverlap, JaccardSorted},
			{"Dice", DiceFromOverlap, DiceSorted},
			{"Cosine", CosineFromOverlap, CosineSorted},
		} {
			for ov := 0; ov < lb; ov++ {
				if lo, hi := c.fromOverlap(ov, la, lb), c.fromOverlap(ov+1, la, lb); lo > hi {
					t.Fatalf("%sFromOverlap(·,%d,%d) falls from %v at %d to %v at %d", c.name, la, lb, lo, ov, hi, ov+1)
				}
			}
			kernel := c.sorted(a, b)
			for _, sub := range [][]tokens.ID{l, a, nil} {
				ub := c.fromOverlap(min(IntersectSizeSortedRef(sub, b)+la-len(sub), lb), la, lb)
				if ub < kernel || Alpha(ub, alpha) < Alpha(kernel, alpha) {
					t.Fatalf("%s: bound %v from L=%v is below the kernel's %v (a=%v b=%v α=%v)", c.name, ub, sub, kernel, a, b, alpha)
				}
				if len(sub) == la && math.Float64bits(ub) != math.Float64bits(kernel) {
					t.Fatalf("%s: with L = a the bound is %v, the kernel's value %v (a=%v b=%v)", c.name, ub, kernel, a, b)
				}
			}
		}
	})
}

// FuzzEditLenBound pins what the check filter's length test rests on
// (filter.Collector.BoundByLength): XLenBound of two rune lengths is at
// least XAlphaLen of any two strings of those lengths, and it never rises
// as the second length moves away from the first, so the lengths that can
// still pass a bound form one window around the reference's.
func FuzzEditLenBound(f *testing.F) {
	f.Add("kitten", "sitting", byte(0))
	f.Add("", "", byte(128))
	f.Add("", "abc", byte(10))
	f.Add("héllo", "hello", byte(200))
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "a", byte(205))
	f.Fuzz(func(t *testing.T, x, y string, alphaByte byte) {
		if len(x) > 96 {
			x = x[:96]
		}
		if len(y) > 96 {
			y = y[:96]
		}
		alpha := float64(alphaByte) / 256
		lx, ly := utf8.RuneCountInString(x), utf8.RuneCountInString(y)
		for _, c := range []struct {
			name   string
			bound  func(lx, ly int, alpha float64) float64
			kernel func(x, y string, lx, ly int, alpha float64) float64
		}{
			{"Eds", EdsLenBound, EdsAlphaLen},
			{"NEds", NEdsLenBound, NEdsAlphaLen},
		} {
			ub := c.bound(lx, ly, alpha)
			if got := c.kernel(x, y, lx, ly, alpha); !(got <= ub) {
				t.Fatalf("%sAlphaLen(%q,%q,α=%v) = %v, above %sLenBound(%d,%d) = %v", c.name, x, y, alpha, got, c.name, lx, ly, ub)
			}
			if sym := c.bound(ly, lx, alpha); math.Float64bits(sym) != math.Float64bits(ub) {
				t.Fatalf("%sLenBound(%d,%d) = %v but %v with the lengths swapped", c.name, lx, ly, ub, sym)
			}
			away := ly + 1
			if ly < lx {
				away = ly - 1
			}
			if further := c.bound(lx, away, alpha); further > ub {
				t.Fatalf("%sLenBound(%d,·,α=%v) rises from %v at %d to %v at %d", c.name, lx, alpha, ub, ly, further, away)
			}
		}
	})
}

// FuzzLevenshteinBounded cross-checks the banded edit distance against the
// plain dynamic program on arbitrary inputs, including invalid UTF-8 and
// control characters.
func FuzzLevenshteinBounded(f *testing.F) {
	f.Add("kitten", "sitting", 3)
	f.Add("", "abc", 0)
	f.Add("héllo", "hello", 1)
	f.Add("aaaa", "aaab", 10)
	f.Add("\x00\x1f", "\x1f\x00", 2)
	f.Fuzz(func(t *testing.T, a, b string, maxDist int) {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		if maxDist < -2 || maxDist > 80 {
			maxDist %= 80
		}
		exact := Levenshtein(a, b)
		got := LevenshteinBounded(a, b, maxDist)
		if exact <= maxDist {
			if got != exact {
				t.Fatalf("LevenshteinBounded(%q,%q,%d) = %d, want %d", a, b, maxDist, got, exact)
			}
		} else if got <= maxDist {
			t.Fatalf("LevenshteinBounded(%q,%q,%d) = %d, but exact is %d", a, b, maxDist, got, exact)
		}
	})
}

// FuzzEditSimilarities checks the invariants every φ must keep on arbitrary
// inputs: range, symmetry, and the thresholded variants matching their
// unthresholded definitions.
func FuzzEditSimilarities(f *testing.F) {
	f.Add("abc", "abd", 0.5)
	f.Add("", "", 0.7)
	f.Add("日本語", "日本", 0.8)
	f.Add("ääääääää", "ä", 0.8)  // rejected on rune lengths alone
	f.Add("ääää", "äää", 0.05)   // maxDist ≥ the longer length
	f.Add("naïve café", "", 0.5) // one side empty
	f.Add("abc", "abd", 0.0)     // α = 0: the unthresholded path
	f.Fuzz(func(t *testing.T, a, b string, alpha float64) {
		if len(a) > 48 {
			a = a[:48]
		}
		if len(b) > 48 {
			b = b[:48]
		}
		if alpha < 0 || alpha >= 1 || math.IsNaN(alpha) {
			alpha = 0.6
		}
		e := Eds(a, b)
		n := NEds(a, b)
		if e < 0 || e > 1 || n < 0 || n > 1 {
			t.Fatalf("similarity out of range: Eds=%v NEds=%v for %q,%q", e, n, a, b)
		}
		if Eds(b, a) != e || NEds(b, a) != n {
			t.Fatalf("asymmetric: %q, %q", a, b)
		}
		if math.Abs(EdsAlpha(a, b, alpha)-Alpha(e, alpha)) > 1e-12 {
			t.Fatalf("EdsAlpha mismatch for %q,%q α=%v", a, b, alpha)
		}
		if math.Abs(NEdsAlpha(a, b, alpha)-Alpha(n, alpha)) > 1e-12 {
			t.Fatalf("NEdsAlpha mismatch for %q,%q α=%v", a, b, alpha)
		}
		// Differential: the length-taking entry points, in both argument
		// orders, against the functions they replaced.
		la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"EdsAlpha", EdsAlpha(a, b, alpha), edsAlphaRef(a, b, alpha)},
			{"EdsAlphaLen", EdsAlphaLen(a, b, la, lb, alpha), edsAlphaRef(a, b, alpha)},
			{"EdsAlphaLen swapped", EdsAlphaLen(b, a, lb, la, alpha), edsAlphaRef(a, b, alpha)},
			{"NEdsAlpha", NEdsAlpha(a, b, alpha), nedsAlphaRef(a, b, alpha)},
			{"NEdsAlphaLen", NEdsAlphaLen(a, b, la, lb, alpha), nedsAlphaRef(a, b, alpha)},
			{"NEdsAlphaLen swapped", NEdsAlphaLen(b, a, lb, la, alpha), nedsAlphaRef(a, b, alpha)},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("%s(%q,%q,α=%v) = %v, the function it replaced gives %v", c.name, a, b, alpha, c.got, c.want)
			}
		}
		// Rune-level: the distance never exceeds the longer rune count.
		m := la
		if lb > m {
			m = lb
		}
		if d := Levenshtein(a, b); d > m {
			t.Fatalf("LD(%q,%q) = %d > max rune len %d", a, b, d, m)
		}
	})
}
