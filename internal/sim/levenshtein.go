package sim

import "unicode/utf8"

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-rune insertions, deletions, and substitutions transforming one
// into the other. It dispatches to Myers' bit-parallel kernel (myers.go):
// one word-op column advance per text rune when the shorter string fits a
// 64-bit word, the blocked multi-word kernel beyond that. Strings of at
// most 64 runes are processed without heap allocation.
//
//silkmoth:hotpath
func Levenshtein(a, b string) int {
	var ab, bb [64]rune
	ra := appendRunes(ab[:0], a)
	rb := appendRunes(bb[:0], b)
	return levenshteinRunes(ra, rb)
}

//silkmoth:hotpath
func levenshteinRunes(ra, rb []rune) int {
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	// rb is the shorter string — the bit-parallel pattern.
	if len(rb) == 0 {
		return len(ra)
	}
	if len(rb) <= 64 {
		return myers64(rb, ra)
	}
	return myersBlocked(rb, ra, len(ra)+len(rb))
}

// LevenshteinBounded returns min(Levenshtein(a, b), maxDist+1): the exact
// edit distance whenever it is at most maxDist, and exactly maxDist+1
// otherwise. It runs the bit-parallel kernel with early abandonment — the
// column loop stops as soon as even the most favorable remaining suffix
// cannot bring the distance back under the bound — which is the thresholded
// fast path behind EdsAlpha and NEdsAlpha.
//
// A negative maxDist always reports exceeded by returning maxDist+1, which
// is ≤ 0; callers must test `> maxDist`, never `== 0`, to detect the
// exceeded case (LevenshteinBounded(x, x, -1) == 0 does not mean equal).
//
//silkmoth:hotpath
func LevenshteinBounded(a, b string, maxDist int) int {
	return levenshteinBoundedLen(a, b, utf8.RuneCountInString(a), utf8.RuneCountInString(b), maxDist)
}

// levenshteinBoundedLen is LevenshteinBounded given la and lb, the rune
// lengths of a and b. The lengths decide the two cheap outcomes — a negative
// bound, and a length difference that already exceeds it — before the rune
// buffers are touched; they must be exact.
//
//silkmoth:hotpath
func levenshteinBoundedLen(a, b string, la, lb, maxDist int) int {
	if maxDist < 0 {
		return maxDist + 1
	}
	if la < lb {
		a, b, la, lb = b, a, lb, la
	}
	if la-lb > maxDist {
		return maxDist + 1
	}
	var ab, bb [64]rune
	ra := appendRunes(ab[:0], a)
	rb := appendRunes(bb[:0], b)
	if maxDist >= len(ra) {
		// The bound can never bind (distance ≤ longer length), and
		// maxDist+1 could overflow for huge bounds — answer exactly.
		return levenshteinRunes(ra, rb)
	}
	if len(rb) == 0 {
		return len(ra) // ≤ maxDist by the length check above
	}
	if len(rb) <= 64 {
		return myers64Bounded(rb, ra, maxDist)
	}
	return myersBlocked(rb, ra, maxDist)
}

// appendRunes appends the runes of s to buf and returns the result. Callers
// pass a stack-backed buffer so short strings decode without allocating.
//
//silkmoth:hotpath
func appendRunes(buf []rune, s string) []rune {
	for _, c := range s {
		buf = append(buf, c)
	}
	return buf
}

// LevenshteinRef is the scalar O(|a|·|b|) dynamic program Levenshtein
// replaced, retained as the reference oracle for the differential fuzz
// targets and kernel property tests. Production code should call
// Levenshtein.
func LevenshteinRef(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	// rb is the shorter string; the DP row has len(rb)+1 entries.
	if len(rb) == 0 {
		return len(ra)
	}
	row := make([]int, len(rb)+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		prev := row[0] // row[i-1][0]
		row[0] = i
		for j := 1; j <= len(rb); j++ {
			cur := row[j]
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			row[j] = min3(row[j]+1, row[j-1]+1, prev+cost)
			prev = cur
		}
	}
	return row[len(rb)]
}

// LevenshteinBoundedRef is the scalar banded dynamic program
// LevenshteinBounded replaced: a diagonal band of width O(maxDist) with
// early termination once every in-band value exceeds the bound. Retained as
// the reference oracle; it keeps the same min(exact, maxDist+1) contract,
// including the negative-maxDist convention.
func LevenshteinBoundedRef(a, b string, maxDist int) int {
	if maxDist < 0 {
		return maxDist + 1
	}
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(ra)-len(rb) > maxDist {
		return maxDist + 1
	}
	if maxDist >= len(ra) {
		// The bound can never bind. Answering exactly also keeps the band
		// arithmetic below overflow-free: with a huge maxDist, i+maxDist
		// would wrap negative, silently emptying every band row and
		// reporting an in-bound distance as exceeded.
		return LevenshteinRef(a, b)
	}
	if len(rb) == 0 {
		if len(ra) > maxDist {
			return maxDist + 1
		}
		return len(ra)
	}
	const inf = int(^uint(0) >> 2)
	n, m := len(ra), len(rb)
	// row[j] = edit distance between ra[:i] and rb[:j], computed only inside
	// the diagonal band |i-j| ≤ maxDist.
	row := make([]int, m+1)
	for j := 0; j <= m; j++ {
		if j > maxDist {
			row[j] = inf
		} else {
			row[j] = j
		}
	}
	for i := 1; i <= n; i++ {
		lo := i - maxDist
		if lo < 1 {
			lo = 1
		}
		hi := i + maxDist
		if hi > m {
			hi = m
		}
		var prev int // row[i-1][lo-1]
		if lo-1 >= 0 {
			prev = row[lo-1]
		}
		if lo == 1 {
			if i > maxDist {
				row[0] = inf
			} else {
				row[0] = i
			}
		}
		if lo-2 >= 0 {
			row[lo-2] = inf // outside band for subsequent rows
		}
		best := inf
		for j := lo; j <= hi; j++ {
			cur := row[j]
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			up := inf
			if j <= i-1+maxDist { // row[i-1][j] inside previous band
				up = cur
			}
			left := inf
			if j-1 >= lo || j-1 == 0 {
				left = row[j-1]
			}
			v := prev + cost
			if up+1 < v {
				v = up + 1
			}
			if left+1 < v {
				v = left + 1
			}
			if v > inf {
				v = inf
			}
			row[j] = v
			if v < best {
				best = v
			}
			prev = cur
		}
		if hi < m {
			row[hi+1] = inf
		}
		if best > maxDist {
			return maxDist + 1
		}
	}
	if row[m] > maxDist {
		return maxDist + 1
	}
	return row[m]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
