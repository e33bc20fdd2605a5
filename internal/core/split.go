package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"silkmoth/internal/dataset"
	"silkmoth/internal/filter"
)

// How a pass wider than one goroutine cuts its work (run). The two constants
// were calibrated on the benchmark's search_columns and serve_mixed_durable
// workloads (CHANGES.md lists the sweep).
const (
	// chunksPerLane is how many set-id chunks a pass cuts its slots into per
	// goroutine of its width. A helper starts late and runs slower than the
	// caller, whose caches are warm, so chunks finer than one per goroutine
	// keep the caller from waiting long on the last one; four did better
	// than two.
	chunksPerLane = 4
	// splitAfter is how long the caller's first chunk may take before the
	// pass is worth helpers: with chunksPerLane·width chunks, a pass of
	// about 160µs or more at width 2. A helper takes some 50µs to wake on an
	// idle core, so it brings only its cost to a pass much shorter, and most
	// serving passes are.
	splitAfter = 20 * time.Microsecond
)

// Test hooks; see ForceSplitForTest and HoldHelpersForTest.
var (
	splitForced atomic.Bool
	heldHelpers atomic.Pointer[helperHold]
)

// ForceSplitForTest makes every pass wider than one goroutine split into one
// chunk per slot and start its helpers however short it is, until restore is
// called: the differential grids' tiny corpora, which self-timing would never
// split, then run helper-run chunks.
func ForceSplitForTest() (restore func()) {
	splitForced.Store(true)
	return func() { splitForced.Store(false) }
}

// helperHold is HoldHelpersForTest's gate: helpers started while it is set
// wait on gate before their first claim, and count what they claim.
type helperHold struct {
	gate    chan struct{}
	exited  sync.WaitGroup
	claimed atomic.Int64
}

// HoldHelpersForTest holds every helper started from now on before its first
// claim, so a split pass's caller runs every chunk itself and returns while
// its helpers have yet to wake. release stops holding new helpers, lets the
// held ones go, waits for them to exit and returns how many chunks they
// claimed.
func HoldHelpersForTest() (release func() int64) {
	h := &helperHold{gate: make(chan struct{})}
	heldHelpers.Store(h)
	return func() int64 {
		heldHelpers.Store(nil)
		close(h.gate)
		h.exited.Wait()
		return h.claimed.Load()
	}
}

// run executes the stages after the signature. A pass of width 1 is one body
// on the caller's goroutine. A wider one cuts the set ids it can match
// (cut) into chunksPerLane·width chunks after opening the signature's posting
// lists once, and the caller runs chunk 0 itself, timing it. When that took
// less than splitAfter the pass is short: the caller runs the rest of the
// slots as one more body. Otherwise it steals. The chunks are disjoint and
// each runs the whole pipeline, so the concatenation of their matches is the
// one-body answer.
func (p *plan) run(ctx context.Context, signatured bool) ([]Match, error) {
	forced := splitForced.Load()
	c := p.cut(forced)
	if p.width < 2 || c.chunks < 2 {
		return p.body(ctx, signatured)
	}
	if signatured {
		p.lists = filter.OpenLists(p.e.ix, p.sig, p.w.lists[:0])
		p.w.lists = p.lists
	}
	// No helper exists yet, so chunk 0 — and a short pass's rest — may move
	// the lists on (filter.Options.Advance): every later chunk starts past it.
	start := time.Now()
	p.lo, p.hi = c.bounds(0)
	p.advance = true
	ms, err := p.body(ctx, signatured)
	if err != nil {
		return nil, err
	}
	p.resume = true
	if !forced && time.Since(start) < splitAfter {
		p.lo, p.hi = p.hi, int32(c.slots)
		rest, err := p.body(ctx, signatured)
		if err != nil || len(ms) == 0 {
			return rest, err
		}
		return append(ms, rest...), nil
	}
	p.advance = false // helpers read the lists from here on
	return p.steal(ctx, signatured, ms, c)
}

// chunking is how a pass wider than one goroutine cuts the set ids
// [base, slots): chunk k of chunks is base plus dataset.Range(k, chunks,
// slots−base).
type chunking struct{ base, chunks, slots int }

// bounds returns chunk k's set ids [lo, hi).
func (c chunking) bounds(k int) (lo, hi int32) {
	l, h := dataset.Range(k, c.chunks, c.slots-c.base)
	return int32(c.base + l), int32(c.base + h)
}

// cut returns the pass's chunking: chunksPerLane·width chunks, or one per
// slot when forced. A self-join pass cuts only the sets after its reference.
// The ones at or below selfSkip are never candidates, and a chunk 0 among
// them would finish under splitAfter however long the pass.
func (p *plan) cut(forced bool) chunking {
	c := chunking{base: p.selfSkip + 1, slots: len(p.e.coll.Sets)}
	c.chunks = min(chunksPerLane*p.width, c.slots-c.base)
	if forced {
		c.chunks = c.slots - c.base
	}
	return c
}

// split is what the caller of a stealing pass shares with its helpers. It is
// allocated per pass, so a helper that wakes after the last claim touches
// nothing else. The plan it copies still points into the caller's worker —
// the signature, the lists — which a helper reads only for a chunk it
// claimed, and the caller waits for every claimed chunk before its worker
// serves another pass.
type split struct {
	ctx        context.Context
	signatured bool
	// p is the caller's plan with no worker and no stage timing, and acc
	// its acceptance test: each helper runs them on a worker of its own.
	p   plan
	acc acceptState
	chunking
	// next is the next chunk to claim; pending counts the chunks after the
	// first still unfinished.
	next    atomic.Int64
	pending sync.WaitGroup
	res     []chunkResult
}

// chunkResult is what one chunk produced. f is a helper's record of it; the
// caller charges its own chunks to the pass directly.
type chunkResult struct {
	ms  []Match
	err error
	f   Funnel
}

// steal runs chunks 1 … chunks−1 of a pass whose chunk 0 produced first: the
// caller starts width−1 helpers, then claims chunks from the same counter as
// they do, and once no chunk is left waits only for the ones a helper has
// claimed. A helper claims before it touches any engine state — an
// unclaimed chunk means the caller is still running and holds the engine's
// read lock — and borrows a pooled searcher at its first claim. The
// stages are charged on the caller's timeline; a helper's chunks count its
// busy time as HelperNanos instead, so a timed pass's stage times stay within
// its wall time. Matches come back in chunk order.
func (p *plan) steal(ctx context.Context, signatured bool, first []Match, ch chunking) ([]Match, error) {
	chunks := ch.chunks
	s := &split{ctx: ctx, signatured: signatured, p: *p, acc: p.w.acc, chunking: ch}
	s.p.w, s.p.timed, s.p.resume = nil, false, false
	s.res = make([]chunkResult, chunks)
	s.next.Store(1)
	s.pending.Add(chunks - 1)
	hold := heldHelpers.Load()
	for range min(p.width, chunks) - 1 {
		if hold != nil {
			hold.exited.Add(1)
		}
		go s.help(hold)
	}
	f := &p.w.pass
	f.SplitPasses++
	for k := s.claim(); k > 0; k = s.claim() {
		c := *p
		c.lo, c.hi = s.bounds(k)
		s.res[k].ms, s.res[k].err = c.body(ctx, signatured)
		s.pending.Done()
	}
	s.pending.Wait()
	out := first
	var err error
	for k := 1; k < chunks; k++ {
		r := &s.res[k]
		f.Add(&r.f)
		if r.err != nil {
			err = r.err
		}
		out = append(out, r.ms...)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// help is one helper of a stealing pass: it claims chunks until none is
// left, running each on a searcher it borrows at its first claim.
func (s *split) help(hold *helperHold) {
	if hold != nil {
		defer hold.exited.Done()
		<-hold.gate
	}
	var sr *Searcher
	for k := s.claim(); k > 0; k = s.claim() {
		if hold != nil {
			hold.claimed.Add(1)
		}
		c := s.p
		if sr == nil {
			sr = s.p.e.NewSearcher()
			sr.w.acc = s.acc
		} else {
			c.resume = true // the helper's memo is this pass's
		}
		start := time.Now()
		c.w = sr.w
		c.lo, c.hi = s.bounds(k)
		r := &s.res[k]
		r.ms, r.err = c.body(s.ctx, s.signatured)
		f := &sr.w.pass
		f.HelperChunks++
		f.HelperNanos += int64(time.Since(start))
		r.f, *f = *f, Funnel{}
		s.pending.Done()
	}
	if sr != nil {
		sr.Close()
	}
}

// claim returns the next unclaimed chunk, or -1 when none is left.
func (s *split) claim() int {
	if k := int(s.next.Add(1)) - 1; k < s.chunks {
		return k
	}
	return -1
}
