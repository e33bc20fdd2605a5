package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Workers clamps a requested worker count to the job count, flooring at
// one. Callers sizing per-worker state use the same clamp FanOut applies.
func Workers(requested, n int) int {
	if requested > n {
		requested = n
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// FanOut runs fn(ctx, w, i) for every i in [0, n) on Workers(workers, n)
// goroutines pulling from a shared counter; w identifies the calling
// worker so fn can keep per-worker scratch (a core.Searcher, say). The
// first error cancels the context handed to the remaining calls and is
// returned — preferring a real failure over the context.Canceled noise
// that cancellation propagation causes in sibling workers. A fan-out of
// one worker has no siblings to cancel or wait for: it runs on the
// caller's goroutine under the caller's context. It is the bounded fan-out
// loop behind the batch path.
func FanOut(parent context.Context, n, workers int, fn func(ctx context.Context, w, i int) error) error {
	if err := parent.Err(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(parent, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	errs := make([]error, workers)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := fn(ctx, w, i); err != nil {
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

// firstError picks the error to surface from a fan-out: a real failure
// wins over context.Canceled.
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
