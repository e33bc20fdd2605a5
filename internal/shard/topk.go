package shard

import (
	"container/heap"
	"context"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
)

// SearchTopKContext returns the k most related sets to r, ordered by
// descending relatedness (ties by index): a bounded heap keeps the best k of
// the pass's matches, never a full sort of them (localTopK).
func (e *Engine) SearchTopKContext(ctx context.Context, r *dataset.Set, k int) ([]core.Match, error) {
	return e.SearchTopKQueryContext(ctx, r, k, nil)
}

// SearchTopKQueryContext is SearchTopKContext with per-query overrides and
// stats capture threaded into the query's pass. A nil q is exactly
// SearchTopKContext.
func (e *Engine) SearchTopKQueryContext(ctx context.Context, r *dataset.Set, k int, q *core.Query) ([]core.Match, error) {
	if k <= 0 {
		return nil, nil
	}
	return e.search(ctx, r, k, q)
}

// localTopK reduces ms to its canonical-order top k in place-ish: a
// bounded worst-at-root heap keeps the best k seen (O(m log k), never a
// full sort of the matches), then the k survivors are sorted.
// Because the canonical order is total (set indices are unique), the
// result is exactly sort-then-truncate's.
//
//silkmoth:hotpath
func localTopK(ms []core.Match, k int) []core.Match {
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
func worse(a, b core.Match) bool {
	if a.Relatedness != b.Relatedness {
		return a.Relatedness < b.Relatedness
	}
	return a.Set > b.Set
}

// worstHeap keeps the canonical-order-worst match at the root.
type worstHeap []core.Match

func (h worstHeap) Len() int           { return len(h) }
func (h worstHeap) Less(i, j int) bool { return worse(h[i], h[j]) }
func (h worstHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *worstHeap) Push(x any)        { *h = append(*h, x.(core.Match)) }
func (h *worstHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
