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

func discover(e *Engine, refs *dataset.Collection) []Pair {
	ps, err := e.DiscoverQueryContext(context.Background(), refs, nil, 1)
	if err != nil {
		panic(err)
	}
	return ps
}
