package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"silkmoth/internal/dataset"
	"silkmoth/internal/filter"
	"silkmoth/internal/signature"
)

// PassStats captures the per-stage funnel of a single logical query — one
// search pass, or the sum of the passes one query fans out into (every
// shard of a scatter-gather, every reference of a discovery). It is the
// per-query counterpart of the engine's cumulative Stats: a query that
// wants its own funnel hangs a PassStats off its Query and reads it back
// after the call returns.
//
// All adds are atomic, so one PassStats may be shared by the concurrent
// passes of one query (shard fan-out, parallel verification); the fields
// must only be read once the query has returned.
type PassStats struct {
	// Passes counts the search passes that charged this capture (shards ×
	// references).
	Passes int64
	// FullScans counts passes with no valid signature that fell back to
	// comparing every set.
	FullScans int64
	// SigTokens is the number of signature tokens generated — the index
	// probe volume.
	SigTokens int64
	// Candidates counts sets matched by signature tokens before any
	// refinement; AfterCheck/CheckPruned split them by the check filter
	// (Candidates = AfterCheck + CheckPruned), and AfterNN/NNPruned split
	// the survivors by the nearest-neighbor filter.
	Candidates  int64
	AfterCheck  int64
	CheckPruned int64
	AfterNN     int64
	NNPruned    int64
	// Verified counts maximum-matching computations.
	Verified int64
	// SimEvals/SimMemoHits split the filters' φ_α requests into kernel
	// calls and per-pass memo hits (see StatsSnapshot).
	SimEvals    int64
	SimMemoHits int64
	// Scheme* count signatured passes by the concrete scheme that probed
	// the index (per-shard choices may differ under Auto).
	SchemeWeighted       int64
	SchemeSkyline        int64
	SchemeDichotomy      int64
	SchemeCombUnweighted int64
	// ElapsedNanos accumulates wall time at whatever granularity the
	// caller measures (whole query, or per batch item).
	ElapsedNanos int64
	// Per-stage wall time summed over the capture's timed passes. A query
	// with a capture is always timed, so these are populated whenever the
	// funnel is; TimedPasses counts the passes measured (equal to Passes
	// for explained queries).
	TimedPasses  int64
	SigNanos     int64
	CollectNanos int64
	RefineNanos  int64
	VerifyNanos  int64
}

// The add methods are nil-safe so the plan's stages charge them
// unconditionally; a query without capture pays one predicted branch.

func (ps *PassStats) addPasses(n int64) {
	if ps != nil {
		atomic.AddInt64(&ps.Passes, n)
	}
}

func (ps *PassStats) addFullScans(n int64) {
	if ps != nil {
		atomic.AddInt64(&ps.FullScans, n)
	}
}

func (ps *PassStats) addSigTokens(n int64) {
	if ps != nil {
		atomic.AddInt64(&ps.SigTokens, n)
	}
}

func (ps *PassStats) addCandidates(n int64) {
	if ps != nil {
		atomic.AddInt64(&ps.Candidates, n)
	}
}

func (ps *PassStats) addAfterCheck(n int64) {
	if ps != nil {
		atomic.AddInt64(&ps.AfterCheck, n)
	}
}

func (ps *PassStats) addCheckPruned(n int64) {
	if ps != nil {
		atomic.AddInt64(&ps.CheckPruned, n)
	}
}

func (ps *PassStats) addAfterNN(n int64) {
	if ps != nil {
		atomic.AddInt64(&ps.AfterNN, n)
	}
}

func (ps *PassStats) addNNPruned(n int64) {
	if ps != nil {
		atomic.AddInt64(&ps.NNPruned, n)
	}
}

func (ps *PassStats) addVerified(n int64) {
	if ps != nil {
		atomic.AddInt64(&ps.Verified, n)
	}
}

func (ps *PassStats) addSim(n filter.SimCounts) {
	if ps != nil {
		atomic.AddInt64(&ps.SimEvals, n.Evals)
		atomic.AddInt64(&ps.SimMemoHits, n.MemoHits)
	}
}

func (ps *PassStats) addScheme(k signature.Kind) {
	if ps == nil {
		return
	}
	switch k {
	case signature.Weighted:
		atomic.AddInt64(&ps.SchemeWeighted, 1)
	case signature.CombUnweighted:
		atomic.AddInt64(&ps.SchemeCombUnweighted, 1)
	case signature.Skyline:
		atomic.AddInt64(&ps.SchemeSkyline, 1)
	case signature.Dichotomy:
		atomic.AddInt64(&ps.SchemeDichotomy, 1)
	}
}

// addStageNanos records one timed pass's per-stage wall time.
func (ps *PassStats) addStageNanos(sig, collect, refine, verify int64) {
	if ps == nil {
		return
	}
	atomic.AddInt64(&ps.TimedPasses, 1)
	atomic.AddInt64(&ps.SigNanos, sig)
	atomic.AddInt64(&ps.CollectNanos, collect)
	atomic.AddInt64(&ps.RefineNanos, refine)
	atomic.AddInt64(&ps.VerifyNanos, verify)
}

// AddElapsed folds wall time into the capture (atomically, like every other
// field). Batch paths call it per item; single-query callers usually
// measure around the whole call instead.
func (ps *PassStats) AddElapsed(d time.Duration) {
	if ps != nil {
		atomic.AddInt64(&ps.ElapsedNanos, int64(d))
	}
}

// Elapsed returns the accumulated wall time.
func (ps *PassStats) Elapsed() time.Duration {
	if ps == nil {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&ps.ElapsedNanos))
}

// worker bundles the per-goroutine scratch of search passes — everything a
// pass reuses across queries so the steady-state hot path performs no
// per-query heap allocations:
//
//   - the candidate collector (pooled Candidate slots) and the nearest-
//     neighbor searcher, each with its per-pass φ_α memo (allocated by the
//     worker's first pass, not by newWorker),
//   - the signature selector (two generator arenas, for Scheme Auto),
//   - the verification scratch (flat Hungarian buffers, interned key
//     slices),
//   - the no-share floor buffer and the parallel-verification result
//     buffers,
//   - a private stats shard merged into the engine's counters when the
//     worker retires (hot loops never contend on shared atomics).
//
// Workers are pooled by the engine (NewSearcher/Close), so a steady stream
// of queries recycles a bounded set of them.
type worker struct {
	cl  *filter.Collector
	ns  *filter.NNSearcher
	sel signature.Selector
	vs  verifyScratch
	// floors backs the pass's no-share floor slice.
	floors []float64
	// resBuf/hitBuf back the parallel verification stage's per-candidate
	// result slots.
	resBuf []Match
	hitBuf []bool
	// acc + acceptFn are the pass's candidate acceptance test; the
	// closure is created once per worker so passes never allocate it.
	acc      acceptState
	acceptFn func(set int32) bool
	st       Stats
	// passSeq drives stage-timing sampling (see sampleTick); single-
	// goroutine like the rest of the worker.
	passSeq int64
}

// acceptState parameterizes the per-pass candidate acceptance test. delta
// is the pass's effective threshold (the engine's, unless the query
// overrode it), set alongside nR at pass start.
type acceptState struct {
	e        *Engine
	selfSkip int
	nR       int
	delta    float64
}

//silkmoth:hotpath
func (a *acceptState) accept(set int32) bool {
	if int(set) <= a.selfSkip {
		return false
	}
	if !a.e.alive(int(set)) {
		return false // tombstoned: postings remain until compaction
	}
	return a.e.sizeAcceptDelta(a.nR, len(a.e.coll.Sets[set].Elements), a.delta)
}

func (e *Engine) newWorker() *worker {
	w := &worker{
		cl: filter.NewCollector(e.ix),
		ns: filter.NewNNSearcher(e.ix, e.phi),
	}
	w.acc.e = e
	w.acceptFn = w.acc.accept
	return w
}

// plan is the compiled execution of one search pass through the pipeline's
// stages:
//
//	signature   scheme selection (Auto resolves here) + generation
//	collect     index probing + check filter (Algorithm 1)
//	refine      nearest-neighbor filter (Algorithm 2)
//	verify      exact maximum-matching verification
//
// Every stage charges the worker's stats shard, so the funnel — signature
// size, candidates, check/NN prunes, verifications — is observable per
// engine. The plan itself lives on the stack; all reusable state belongs to
// the worker.
type plan struct {
	e          *Engine
	w          *worker
	r          *dataset.Set
	selfSkip   int
	parallelOK bool
	// opts is the pass's effective configuration: the engine's options
	// with the query's overrides applied (queryOptions). Every stage reads
	// it, never e.opts, so per-query overrides reach the whole pipeline.
	opts Options
	// ps is the query's own stats capture, nil unless requested. It is
	// charged in lockstep with the worker's cumulative shard.
	ps *PassStats
	// timed marks a pass whose stages are wall-timed: sampled per
	// Options.StageSample, or unconditionally when ps != nil. sigNanos and
	// collectNanos are written serially; refineNanos/verifyNanos accumulate
	// under atomics because parallel verification shares the plan.
	timed        bool
	sigNanos     int64
	collectNanos int64
	refineNanos  int64
	verifyNanos  int64

	pruneThreshold float64
	scheme         signature.Kind
	sig            *signature.Signature
	cands          []*filter.Candidate
	floors         []float64
}

// searchPass generates r's signature, collects and refines candidates, and
// verifies survivors. Candidate sets with index ≤ selfSkip are excluded
// (selfSkip = the reference's own index during self-join discovery under
// SET-SIMILARITY; -1 otherwise). Pass a reusable worker; its stats shard
// absorbs the pass's counters. parallelOK permits sharding the verification
// loop across goroutines (true for top-level searches, false inside
// Discover's workers, which are already parallel). q, when non-nil,
// overrides scheme/δ/filters for this pass and captures its funnel.
//
//silkmoth:hotpath
func (e *Engine) searchPass(ctx context.Context, r *dataset.Set, selfSkip int, w *worker, parallelOK bool, q *Query) ([]Match, error) {
	w.st.addSearchPasses(1)
	var ps *PassStats
	if q != nil {
		ps = q.Stats
	}
	ps.addPasses(1)
	nR := len(r.Elements)
	if nR == 0 {
		return nil, nil
	}
	p := plan{
		e:          e,
		w:          w,
		r:          r,
		selfSkip:   selfSkip,
		parallelOK: parallelOK,
		opts:       e.queryOptions(q),
		ps:         ps,
	}
	p.pruneThreshold = p.opts.Delta*float64(nR) - pruneSlack
	w.acc.selfSkip = selfSkip
	w.acc.nR = nR
	w.acc.delta = p.opts.Delta
	// Explained queries are always stage-timed; otherwise sampling decides.
	p.timed = ps != nil || w.sampleTick(p.opts.StageSample)

	if !p.timed {
		if !p.buildSignature() {
			return p.fullScan(ctx)
		}
		p.collect()
		p.prepareRefine()
		return p.verifyAll(ctx)
	}

	var ms []Match
	var err error
	t0 := time.Now()
	if !p.buildSignature() {
		t1 := time.Now()
		p.sigNanos = t1.Sub(t0).Nanoseconds()
		ms, err = p.fullScan(ctx)
		// The signatureless fallback is all verification.
		p.verifyNanos = time.Since(t1).Nanoseconds()
	} else {
		t1 := time.Now()
		p.sigNanos = t1.Sub(t0).Nanoseconds()
		p.collect()
		t2 := time.Now()
		p.collectNanos = t2.Sub(t1).Nanoseconds()
		p.prepareRefine()
		// Floor precomputation belongs to refinement; the per-candidate
		// NN-filter/verify split is timed inside refineAndVerify.
		p.refineNanos = time.Since(t2).Nanoseconds()
		ms, err = p.verifyAll(ctx)
	}
	p.finishTiming()
	return ms, err
}

// buildSignature runs the signature stage: the worker's selector resolves
// the engine's scheme (cost-based for Auto) and generates the probe
// signature. It reports false when no valid signature exists (edit
// similarity, §7.3) and the pass must fall back to a full scan.
//
//silkmoth:hotpath
func (p *plan) buildSignature() bool {
	e, w := p.e, p.w
	sig, kind := w.sel.Generate(p.opts.Scheme, p.r, signature.Params{
		Delta:  p.opts.Delta,
		Alpha:  p.opts.Alpha,
		Family: p.opts.Sim.family(),
	}, e.ix)
	p.sig, p.scheme = sig, kind
	if !sig.Valid {
		w.st.addFullScans(1)
		p.ps.addFullScans(1)
		return false
	}
	w.st.addScheme(kind)
	p.ps.addScheme(kind)
	n := 0
	for i := range sig.Elements {
		n += len(sig.Elements[i].Tokens)
	}
	w.st.addSigTokens(int64(n))
	p.ps.addSigTokens(int64(n))
	return true
}

// fullScan compares r against every acceptable set — the signatureless
// fallback.
func (p *plan) fullScan(ctx context.Context) ([]Match, error) {
	e, w := p.e, p.w
	var out []Match
	for s := range e.coll.Sets {
		if s%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !w.acceptFn(int32(s)) {
			continue
		}
		w.st.addVerified(1)
		p.ps.addVerified(1)
		if m, ok := e.verifyWith(p.r, s, &w.vs, &p.opts); ok {
			out = append(out, m)
		}
	}
	return out, nil
}

// collect runs candidate selection plus the check filter over the inverted
// index. The resulting candidate slice points into the worker's collector
// scratch and is consumed before the pass ends.
//
//silkmoth:hotpath
func (p *plan) collect() {
	e, w := p.e, p.w
	cands, raw := w.cl.Collect(p.r, p.sig, e.phi, filter.Options{
		Accept:         w.acceptFn,
		CheckFilter:    p.opts.CheckFilter,
		PruneThreshold: p.pruneThreshold,
	})
	p.cands = cands
	p.chargeSim(w, w.cl.TakeSimCounts())
	w.st.addCandidates(int64(raw))
	p.ps.addCandidates(int64(raw))
	w.st.addAfterCheck(int64(len(cands)))
	p.ps.addAfterCheck(int64(len(cands)))
	if p.opts.CheckFilter {
		w.st.addCheckPruned(int64(raw - len(cands)))
		p.ps.addCheckPruned(int64(raw - len(cands)))
	}
}

// chargeSim books the φ_α counts one of the pass's filters kept in plain
// integers on worker w: once per stage and worker, never per posting.
//
//silkmoth:hotpath
func (p *plan) chargeSim(w *worker, n filter.SimCounts) {
	w.st.addSim(n)
	p.ps.addSim(n)
}

// prepareRefine precomputes the nearest-neighbor filter's no-share floors
// into the worker's buffer.
//
//silkmoth:hotpath
func (p *plan) prepareRefine() {
	e, w := p.e, p.w
	if p.opts.NNFilter {
		w.floors = filter.AppendNoShareFloors(w.floors, p.r, p.sig, e.coll.Mode, p.opts.Alpha)
		p.floors = w.floors
	} else {
		p.floors = nil
	}
}

// verifyAll refines and verifies the surviving candidates, serially or —
// when permitted and worthwhile — sharded across the engine's concurrency.
func (p *plan) verifyAll(ctx context.Context) ([]Match, error) {
	e := p.e
	if p.parallelOK && e.opts.Concurrency > 1 && len(p.cands) >= parallelCandMin {
		return p.verifyParallel(ctx)
	}
	var out []Match
	var err error
	for i, c := range p.cands {
		if i%cancelCheckStride == 0 {
			if err = ctx.Err(); err != nil {
				out = nil
				break
			}
		}
		if m, ok := p.refineAndVerify(c, p.w); ok {
			out = append(out, m)
		}
	}
	p.chargeSim(p.w, p.w.ns.TakeSimCounts())
	return out, err
}

// refineAndVerify runs one candidate through the nearest-neighbor filter and
// exact verification, charging the given worker's stats shard (the parallel
// stage hands each goroutine its own worker).
//
//silkmoth:hotpath
func (p *plan) refineAndVerify(c *filter.Candidate, w *worker) (Match, bool) {
	e := p.e
	if !p.timed {
		if p.opts.NNFilter && !filter.NNFilter(p.r, p.sig, c, w.ns, p.floors, p.pruneThreshold) {
			w.st.addNNPruned(1)
			p.ps.addNNPruned(1)
			return Match{}, false
		}
		w.st.addAfterNN(1)
		p.ps.addAfterNN(1)
		w.st.addVerified(1)
		p.ps.addVerified(1)
		return e.verifyWith(p.r, int(c.Set), &w.vs, &p.opts)
	}
	// Timed pass: split this candidate's cost between the refine and
	// verify stages. Atomic adds — parallel verification shares the plan.
	t0 := time.Now()
	if p.opts.NNFilter && !filter.NNFilter(p.r, p.sig, c, w.ns, p.floors, p.pruneThreshold) {
		w.st.addNNPruned(1)
		p.ps.addNNPruned(1)
		atomic.AddInt64(&p.refineNanos, time.Since(t0).Nanoseconds())
		return Match{}, false
	}
	t1 := time.Now()
	atomic.AddInt64(&p.refineNanos, t1.Sub(t0).Nanoseconds())
	w.st.addAfterNN(1)
	p.ps.addAfterNN(1)
	w.st.addVerified(1)
	p.ps.addVerified(1)
	m, ok := e.verifyWith(p.r, int(c.Set), &w.vs, &p.opts)
	atomic.AddInt64(&p.verifyNanos, time.Since(t1).Nanoseconds())
	return m, ok
}

// verifyParallel shards the pass's surviving candidates across Concurrency
// goroutines. Each extra shard borrows a pooled searcher (its own
// nearest-neighbor scratch, verification scratch, and stats shard); results
// land in per-candidate slots, so the assembled output is byte-identical to
// the serial loop's order.
func (p *plan) verifyParallel(ctx context.Context) ([]Match, error) {
	e, w, cands := p.e, p.w, p.cands
	nw := e.opts.Concurrency
	if nw > len(cands) {
		nw = len(cands)
	}
	if cap(w.resBuf) < len(cands) {
		w.resBuf = make([]Match, len(cands))
		w.hitBuf = make([]bool, len(cands))
	}
	results := w.resBuf[:len(cands)]
	hits := w.hitBuf[:len(cands)]
	for i := range hits {
		hits[i] = false
	}
	var next int64
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		// The caller's worker serves shard 0; extra shards borrow pooled
		// searchers, whose Close returns both the scratch and the stats.
		sw := w
		var sr *Searcher
		if wi > 0 {
			sr = e.NewSearcher()
			sw = sr.w
		}
		wg.Add(1)
		go func(sw *worker, sr *Searcher) {
			defer wg.Done()
			if sr != nil {
				defer sr.Close()
			}
			// Runs before Close folds the borrowed worker's shard away.
			defer func() { p.chargeSim(sw, sw.ns.TakeSimCounts()) }()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(cands) {
					return
				}
				if i%cancelCheckStride == 0 && ctx.Err() != nil {
					return
				}
				if m, ok := p.refineAndVerify(cands[i], sw); ok {
					results[i] = m
					hits[i] = true
				}
			}
		}(sw, sr)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Match, 0, len(cands))
	for i := range results {
		if hits[i] {
			out = append(out, results[i])
		}
	}
	return out, nil
}
