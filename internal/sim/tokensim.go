package sim

import (
	"math"

	"silkmoth/internal/tokens"
)

// DiceSorted returns the Dice coefficient 2|a∩b| / (|a|+|b|) for two sorted,
// duplicate-free token id slices. Two empty slices have similarity 0.
func DiceSorted(a, b []tokens.ID) float64 {
	return DiceFromOverlap(IntersectSizeSorted(a, b), len(a), len(b))
}

// DiceFromOverlap is DiceSorted from the sizes alone; see
// JaccardFromOverlap.
//
//silkmoth:hotpath
func DiceFromOverlap(inter, la, lb int) float64 {
	if la == 0 || lb == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(la+lb)
}

// CosineSorted returns the set cosine similarity |a∩b| / √(|a|·|b|) for two
// sorted, duplicate-free token id slices. Two empty slices have
// similarity 0.
func CosineSorted(a, b []tokens.ID) float64 {
	return CosineFromOverlap(IntersectSizeSorted(a, b), len(a), len(b))
}

// CosineFromOverlap is CosineSorted from the sizes alone; see
// JaccardFromOverlap.
//
//silkmoth:hotpath
func CosineFromOverlap(inter, la, lb int) float64 {
	if la == 0 || lb == 0 {
		return 0
	}
	return float64(inter) / math.Sqrt(float64(la)*float64(lb))
}

// OverlapFunc is the shape of JaccardFromOverlap, DiceFromOverlap and
// CosineFromOverlap: a token-based similarity as a function of |a∩b|, |a|
// and |b|.
type OverlapFunc func(inter, la, lb int) float64
