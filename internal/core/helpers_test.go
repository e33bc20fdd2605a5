package core

import (
	"context"

	"silkmoth/internal/dataset"
)

// The engine's query entrypoints all thread a context (the ctxflow
// analyzer pins that contract); these helpers keep the no-cancellation
// test call sites terse.

func search(e *Engine, r *dataset.Set) []Match {
	ms, err := e.SearchContext(context.Background(), r)
	if err != nil {
		panic(err)
	}
	return ms
}

// setsIn returns the collection of c's sets lo..hi-1, with their own
// element table (dataset.Collection.Subset): a batch's references.
func setsIn(c *dataset.Collection, lo, hi int) *dataset.Collection {
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return c.Subset(idx)
}

func discover(e *Engine, refs *dataset.Collection) []Pair {
	ps, err := e.DiscoverQueryContext(context.Background(), refs, nil, 1)
	if err != nil {
		panic(err)
	}
	return ps
}
