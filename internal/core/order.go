package core

import (
	"container/heap"
	"slices"
)

// sortMatches orders matches canonically: descending relatedness, ties by
// ascending set index. This is the order every search answer has.
//
//silkmoth:hotpath
func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		if a.Relatedness != b.Relatedness {
			if a.Relatedness > b.Relatedness {
				return -1
			}
			return 1
		}
		return a.Set - b.Set
	})
}

// sortPairs orders pairs by (R, S), the order every discovery answer has.
func sortPairs(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		if a.R != b.R {
			return a.R - b.R
		}
		return a.S - b.S
	})
}

// localTopK reduces ms to its canonical-order top k in place-ish: a bounded
// worst-at-root heap keeps the best k seen (O(m log k), never a full sort of
// the matches), then the k survivors are sorted. Because the canonical order
// is total (set indices are unique), the result is exactly
// sort-then-truncate's. k must be positive.
//
//silkmoth:hotpath
func localTopK(ms []Match, k int) []Match {
	if len(ms) > k {
		h := worstHeap(ms[:k:k])
		heap.Init(&h)
		for _, m := range ms[k:] {
			if worse(m, h[0]) {
				continue
			}
			h[0] = m
			heap.Fix(&h, 0)
		}
		ms = h
	}
	sortMatches(ms)
	return ms
}

// worse reports whether a ranks strictly after b in the canonical order
// (descending relatedness, ties by ascending set index).
//
//silkmoth:hotpath
func worse(a, b Match) bool {
	if a.Relatedness != b.Relatedness {
		return a.Relatedness < b.Relatedness
	}
	return a.Set > b.Set
}

// worstHeap keeps the canonical-order-worst match at the root.
type worstHeap []Match

func (h worstHeap) Len() int           { return len(h) }
func (h worstHeap) Less(i, j int) bool { return worse(h[i], h[j]) }
func (h worstHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *worstHeap) Push(x any)        { *h = append(*h, x.(Match)) }
func (h *worstHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
