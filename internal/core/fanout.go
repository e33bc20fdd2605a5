package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// fanOutWorkers is how many workers fanOut runs n jobs on: the engine's
// Concurrency, at most n and at least one. Callers size per-worker state by
// it.
func (e *Engine) fanOutWorkers(n int) int {
	return max(1, min(e.opts.Concurrency, n))
}

// fanOut runs fn(ctx, sr, w, i) for every i in [0, n) on fanOutWorkers(n)
// goroutines pulling from a shared counter. w identifies the calling worker,
// so fn can keep per-worker state, and sr is that worker's Searcher, closed
// when the fan-out returns. The first error cancels the context handed to the
// remaining calls and is returned — preferring a real failure over the
// context.Canceled noise that cancellation propagation causes in sibling
// workers. A fan-out of one worker has no siblings to cancel or wait for: it
// runs on the caller's goroutine under the caller's context. It is the one
// loop behind discovery and the batch path; a split pass's chunks follow
// their own schedule (split.go).
func (e *Engine) fanOut(parent context.Context, n int, fn func(ctx context.Context, sr *Searcher, w, i int) error) error {
	if err := parent.Err(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	searchers := make([]*Searcher, e.fanOutWorkers(n))
	for w := range searchers {
		searchers[w] = e.NewSearcher()
	}
	defer func() {
		for _, sr := range searchers {
			sr.Close()
		}
	}()
	workers := len(searchers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(parent, searchers[0], 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(ctx, searchers[w], w, i); err != nil {
					errs[w] = err
					cancel() // abort the siblings
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstError(errs)
}

// firstError picks the error to surface from a fan-out: a real failure wins
// over context.Canceled.
func firstError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return first
}
