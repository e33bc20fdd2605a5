package sim

import "unicode/utf8"

// Eds returns the edit similarity of paper §2.1:
//
//	Eds(x, y) = 1 - 2·LD(x,y) / (|x| + |y| + LD(x,y))
//
// following Li & Liu's normalized Levenshtein metric, whose dual distance
// 1-Eds satisfies the triangle inequality. Two empty strings have
// similarity 0 (an empty element matches nothing).
func Eds(x, y string) float64 {
	lx, ly := utf8.RuneCountInString(x), utf8.RuneCountInString(y)
	if lx == 0 && ly == 0 {
		return 0
	}
	ld := Levenshtein(x, y)
	return 1 - 2*float64(ld)/float64(lx+ly+ld)
}

// NEds returns the alternative normalized edit similarity of paper §2.1:
//
//	NEds(x, y) = 1 - LD(x,y) / max(|x|, |y|)
//
// Its dual distance does not satisfy the triangle inequality, so the
// reduction-based verification of §5.3 is unavailable under NEds.
func NEds(x, y string) float64 {
	lx, ly := utf8.RuneCountInString(x), utf8.RuneCountInString(y)
	m := lx
	if ly > m {
		m = ly
	}
	if m == 0 {
		return 0
	}
	ld := Levenshtein(x, y)
	return 1 - float64(ld)/float64(m)
}

// EdsAlpha returns φ_α(x, y) under Eds: the edit similarity when it is at
// least alpha and 0 otherwise. For alpha > 0 it uses a banded edit distance
// computation that abandons early once the distance bound implied by alpha
// is exceeded: Eds(x,y) ≥ α ⟺ LD(x,y) ≤ (1-α)(|x|+|y|)/(1+α).
func EdsAlpha(x, y string, alpha float64) float64 {
	return EdsAlphaLen(x, y, utf8.RuneCountInString(x), utf8.RuneCountInString(y), alpha)
}

// EdsAlphaLen is EdsAlpha for a caller that already holds the rune lengths
// lx = |x| and ly = |y| (dataset.Element.Length under ModeQGram): nothing is
// counted twice, and a pair whose lengths alone put it past the distance
// bound is rejected before a rune of either string is decoded.
//
//silkmoth:hotpath
func EdsAlphaLen(x, y string, lx, ly int, alpha float64) float64 {
	if alpha <= 0 {
		return Eds(x, y)
	}
	if lx == 0 && ly == 0 {
		return 0
	}
	maxDist := int((1-alpha)*float64(lx+ly)/(1+alpha)) + 1
	ld := levenshteinBoundedLen(x, y, lx, ly, maxDist)
	if ld > maxDist {
		return 0
	}
	s := 1 - 2*float64(ld)/float64(lx+ly+ld)
	return Alpha(s, alpha)
}

// NEdsAlpha returns φ_α(x, y) under NEds, using a banded edit distance
// computation for alpha > 0: NEds(x,y) ≥ α ⟺ LD(x,y) ≤ (1-α)·max(|x|,|y|).
func NEdsAlpha(x, y string, alpha float64) float64 {
	return NEdsAlphaLen(x, y, utf8.RuneCountInString(x), utf8.RuneCountInString(y), alpha)
}

// NEdsAlphaLen is NEdsAlpha given the rune lengths, as EdsAlphaLen is
// EdsAlpha.
//
//silkmoth:hotpath
func NEdsAlphaLen(x, y string, lx, ly int, alpha float64) float64 {
	if alpha <= 0 {
		return NEds(x, y)
	}
	m := lx
	if ly > m {
		m = ly
	}
	if m == 0 {
		return 0
	}
	maxDist := int((1-alpha)*float64(m)) + 1
	ld := levenshteinBoundedLen(x, y, lx, ly, maxDist)
	if ld > maxDist {
		return 0
	}
	s := 1 - float64(ld)/float64(m)
	return Alpha(s, alpha)
}

// LenBoundFunc is the shape of EdsLenBound and NEdsLenBound with α fixed: an
// upper bound on φ_α(x, y) from the two rune lengths alone.
type LenBoundFunc func(lx, ly int) float64

// EdsLenBound returns the largest value EdsAlphaLen(x, y, lx, ly, alpha) can
// take over all strings of rune lengths lx and ly. LD(x, y) ≥ ||x| − |y||
// and Eds falls as the distance grows — in floating point too: the exact
// ratio 2·LD/(|x|+|y|+LD) grows with LD, and division, subtraction and the
// α cut are monotone under rounding — so it is EdsAlphaLen's formula at that
// distance.
//
//silkmoth:hotpath
func EdsLenBound(lx, ly int, alpha float64) float64 {
	if lx+ly == 0 {
		return 0
	}
	d := lx - ly
	if d < 0 {
		d = -d
	}
	return Alpha(1-2*float64(d)/float64(lx+ly+d), alpha)
}

// NEdsLenBound is EdsLenBound for NEdsAlphaLen.
//
//silkmoth:hotpath
func NEdsLenBound(lx, ly int, alpha float64) float64 {
	m, d := lx, lx-ly
	if d < 0 {
		m, d = ly, -d
	}
	if m == 0 {
		return 0
	}
	return Alpha(1-float64(d)/float64(m), alpha)
}
