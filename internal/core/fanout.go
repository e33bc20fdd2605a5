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

// fanJob is the work of one fan-out: pass runs item i as a search pass of at
// most width goroutines on worker w's Searcher. It is a value, so a call of
// one worker, which runs on the caller's goroutine, allocates nothing for
// it; only a wider fan-out copies it to its goroutines.
type fanJob interface {
	pass(ctx context.Context, sr *Searcher, w, i, width int) error
}

// fanOut runs job.pass for every item i in [0, n) on fanOutWorkers(n)
// goroutines pulling from a shared counter, each with a Searcher of its own,
// closed when the fan-out returns. It is the one schedule of every call of
// many passes — a batch, a discovery — and hands each pass the width its
// fan-out leaves idle: width / workers goroutines, at least one. A pass runs
// its first chunk on its worker and starts helpers only once it proves long
// (plan.run), so the call runs on at most max(Concurrency, width)
// goroutines. The first error cancels the context handed to the remaining
// passes and is returned — preferring a real failure over the
// context.Canceled noise that cancellation propagation causes in sibling
// workers. A fan-out of one worker has no siblings to cancel or wait for: it
// runs on the caller's goroutine under the caller's context, at the full
// width.
func fanOut[J fanJob](e *Engine, parent context.Context, n, width int, job J) error {
	if err := parent.Err(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	workers := e.fanOutWorkers(n)
	passWidth := max(1, width/workers)
	if workers == 1 {
		sr := e.NewSearcher()
		defer sr.Close()
		for i := range n {
			if err := job.pass(parent, sr, 0, i, passWidth); err != nil {
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
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := e.NewSearcher()
			defer sr.Close()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := job.pass(ctx, sr, w, i, passWidth); err != nil {
					errs[w] = err
					cancel() // abort the siblings
					return
				}
			}
		}()
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
