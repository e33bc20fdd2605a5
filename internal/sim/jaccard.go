// Package sim implements the element-level similarity functions SilkMoth
// supports (paper §2.1): token-based Jaccard, Dice, and cosine similarity
// and the two character-based edit similarities Eds and NEds, plus the
// similarity threshold wrapper φ_α.
//
// # Empty-input convention
//
// Every metric in this package agrees on one convention for empty inputs:
// a comparison in which either side is empty — an empty token slice, an
// empty string — has similarity 0, including empty vs empty. An empty
// element matches nothing, not everything; two empty elements are not
// evidence of relatedness. TestEmptyInputConvention pins the full metric
// table to this rule.
//
// # Kernels
//
// The hot verification kernels are bit-parallel and branch-reduced:
// Levenshtein and LevenshteinBounded run Myers' algorithm (one word-op
// column advance per text rune for ≤64-rune strings, blocked beyond), and
// IntersectSizeSorted picks galloping or block-skipped merge by size ratio.
// The scalar implementations they replaced are retained as *Ref functions
// and pinned bit-identical by differential fuzz targets and property tests.
//
// The kernels carry //silkmoth:hotpath annotations: the hotpath analyzer
// (internal/lint, run as `silkmothlint` in CI) statically rejects
// allocation-inducing constructs inside them, so the zero-allocation claim
// above is enforced at the source level, not just by AllocsPerRun tests.
// The retained *Ref oracles are unannotated on purpose — they trade
// allocations for obviousness.
package sim

import "silkmoth/internal/tokens"

// JaccardSorted returns |a∩b| / |a∪b| for two sorted, duplicate-free token
// id slices. An empty side — including both sides empty — has similarity 0
// (the package-wide empty-input convention).
func JaccardSorted(a, b []tokens.ID) float64 {
	return JaccardFromOverlap(IntersectSizeSorted(a, b), len(a), len(b))
}

// JaccardFromOverlap is JaccardSorted of two duplicate-free token sets of
// la and lb tokens that share inter of them. It is the one place the
// formula is written: JaccardSorted intersects and calls it, and the paths
// that count |a∩b| off the inverted index instead of intersecting (package
// filter's Overlap) call it with the count, so the two agree bit for bit.
//
//silkmoth:hotpath
func JaccardFromOverlap(inter, la, lb int) float64 {
	if la == 0 || lb == 0 {
		return 0
	}
	return float64(inter) / float64(la+lb-inter)
}

// Alpha applies the similarity threshold α to a raw similarity score,
// returning 0 when the score falls below α (the φ_α of paper §2.1).
func Alpha(score, alpha float64) float64 {
	if score < alpha {
		return 0
	}
	return score
}
