package core

import (
	"context"

	"silkmoth/internal/dataset"
	"silkmoth/internal/filter"
	"silkmoth/internal/index"
	"silkmoth/internal/signature"
)

// worker bundles the per-goroutine scratch of search passes — everything a
// pass reuses across queries so the steady-state hot path performs no
// per-query heap allocations:
//
//   - the candidate collector (per-set state and the per-pass candidate
//     arenas) and the nearest-neighbor searcher, each with its per-pass φ_α
//     memo (allocated by the worker's first pass, not by newWorker),
//   - the signature selector (two generator arenas, for Scheme Auto),
//   - the verification scratch (flat Hungarian buffers, interned key
//     slices),
//   - the no-share floor buffer and the opened posting lists of a pass that
//     runs in chunks,
//   - the Funnel of the pass in flight, which the stages charge with plain
//     adds, and the running total it is folded into when the pass ends;
//     the total reaches the engine's counters when the worker retires (hot
//     loops never touch shared memory).
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
	// lists backs the pass's posting cursors (filter.OpenLists) when it
	// runs in chunks; cleared when the pass ends, so a pooled worker pins
	// no posting list.
	lists []index.Cursor
	// acc + acceptFn are the pass's candidate acceptance test; the
	// closure is created once per worker so passes never allocate it.
	acc      acceptState
	acceptFn func(set int32) bool
	pass     Funnel
	total    Funnel
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
	if e.fromOverlap != nil {
		w.cl.CountOverlaps(e.fromOverlap, e.opts.Alpha)
		w.ns.CountOverlaps(e.fromOverlap, e.opts.Alpha)
		w.vs.os = overlapSim{ix: e.ix, fromOverlap: e.fromOverlap, alpha: e.opts.Alpha}
	} else {
		w.cl.BoundByLength(lenBoundFunc(e.opts))
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
// Every stage charges its worker's pass record, so the funnel — signature
// size, candidates, check/NN prunes, verifications — is observable per
// engine and per query once the pass ends (endPass). All reusable state
// belongs to the worker.
type plan struct {
	e *Engine
	w *worker
	r *dataset.Set
	// rdir is r's entries in the element table of the collection that
	// holds it: what the §5.3 reduction reads r's keys from.
	rdir     []dataset.DirEntry
	selfSkip int
	// width is the most goroutines the pass may run on: 1 keeps it on the
	// caller's (see run).
	width int
	// opts is the pass's effective configuration: the engine's options
	// with the query's overrides applied (queryOptions). Every stage reads
	// it, never e.opts, so per-query overrides reach the whole pipeline.
	opts Options
	// timed marks a pass whose stages are wall-timed: sampled per
	// Options.StageSample, or unconditionally when the query carries a
	// capture.
	timed bool
	// lo and hi, when hi > 0, restrict candidates to the set ids [lo, hi):
	// the chunk of the collection one body works on. resume marks a body
	// after the first its worker runs for the pass (filter.Options.Resume),
	// advance one that may move lists past hi (filter.Options.Advance).
	lo, hi          int32
	resume, advance bool

	pruneThreshold float64
	sig            *signature.Signature
	// lists, when non-nil, are the signature's posting lists opened once
	// for every chunk of the pass.
	lists  []index.Cursor
	cands  []*filter.Candidate
	floors []float64
}

// searchPass generates r's signature, collects and refines candidates, and
// verifies survivors, on at most width goroutines (run); rdir is r's
// element-table entries (plan.rdir). Candidate sets with index ≤ selfSkip
// are excluded (selfSkip = the reference's own index during
// self-join discovery under SET-SIMILARITY; -1 otherwise). Pass a reusable
// worker; its running total absorbs the pass's counters. q, when non-nil,
// overrides scheme/δ/filters for this pass and captures its funnel. A pass
// that saw a posting container fail to decode returns ErrPostingDecode.
//
//silkmoth:hotpath
func (e *Engine) searchPass(ctx context.Context, r *dataset.Set, rdir []dataset.DirEntry, selfSkip int, w *worker, width int, q *Query) ([]Match, error) {
	var capture *Capture
	if q != nil {
		capture = q.Stats
	}
	f := &w.pass
	f.SearchPasses++
	// The index's decode-error counter is shared by every pass on the
	// engine, so a failure is charged to all passes in flight: each of
	// them refuses to answer rather than find out whose list it was.
	decodeErrs := e.ix.DecodeErrors()
	nR := len(r.Elements)
	if nR == 0 {
		w.endPass(capture)
		return nil, nil
	}
	p := plan{
		e:        e,
		w:        w,
		r:        r,
		rdir:     rdir,
		selfSkip: selfSkip,
		width:    width,
		opts:     e.queryOptions(q),
	}
	p.pruneThreshold = p.opts.Delta*float64(nR) - pruneSlack
	w.acc.selfSkip = selfSkip
	w.acc.nR = nR
	w.acc.delta = p.opts.Delta
	// Explained queries are always stage-timed; otherwise sampling decides.
	p.timed = capture != nil || w.sampleTick(p.opts.StageSample)

	lt := startLaps(p.timed)
	signatured := p.buildSignature()
	f.SigNanos += lt.lap()
	ms, err := p.run(ctx, signatured)
	if p.timed {
		e.observeStages(f)
	}
	w.endPass(capture)
	if err == nil && e.ix.DecodeErrors() != decodeErrs {
		return nil, ErrPostingDecode
	}
	return ms, err
}

// body runs the stages after the signature on the plan's worker, over its
// set range: collect, refine and verify, or the full scan when there is no
// signature.
//
//silkmoth:hotpath
func (p *plan) body(ctx context.Context, signatured bool) ([]Match, error) {
	f := &p.w.pass
	lt := startLaps(p.timed)
	if !signatured {
		ms, err := p.fullScan(ctx)
		// The signatureless fallback is all verification.
		f.VerifyNanos += lt.lap()
		return ms, err
	}
	p.collect()
	f.CollectNanos += lt.lap()
	p.prepareRefine()
	// Floor precomputation belongs to refinement; the per-candidate
	// NN-filter/verify split is timed inside refineAndVerify.
	f.RefineNanos += lt.lap()
	return p.verifyAll(ctx)
}

// endPass folds the worker's record of the pass that just ended — on any
// return path, cancellation included — into its running total and, when the
// query carries one, into the query's capture, and clears it and the
// pass's opened lists for the next pass.
//
//silkmoth:hotpath
func (w *worker) endPass(capture *Capture) {
	w.total.Add(&w.pass)
	if capture != nil {
		capture.fold(&w.pass)
	}
	w.pass = Funnel{}
	clear(w.lists)
	w.lists = w.lists[:0]
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
	p.sig = sig
	f := &w.pass
	if !sig.Valid {
		f.FullScans++
		return false
	}
	switch kind {
	case signature.Weighted:
		f.SchemeWeighted++
	case signature.CombUnweighted:
		f.SchemeCombUnweighted++
	case signature.Skyline:
		f.SchemeSkyline++
	case signature.Dichotomy:
		f.SchemeDichotomy++
	}
	for i := range sig.Elements {
		f.SigTokens += int64(len(sig.Elements[i].Tokens))
	}
	return true
}

// fullScan compares r against every acceptable set of the plan's range —
// the signatureless fallback.
func (p *plan) fullScan(ctx context.Context) ([]Match, error) {
	e, w := p.e, p.w
	var out []Match
	lo, hi := int(p.lo), len(e.coll.Sets)
	if p.hi > 0 {
		hi = int(p.hi)
	}
	for s := lo; s < hi; s++ {
		if s%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !w.acceptFn(int32(s)) {
			continue
		}
		w.pass.Verified++
		if m, ok := e.verifyWith(p.r, p.rdir, s, &w.vs, &p.opts); ok {
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
		Lo:             p.lo,
		Hi:             p.hi,
		Lists:          p.lists,
		Resume:         p.resume,
		Advance:        p.advance,
	})
	p.cands = cands
	w.chargeSim(w.cl.TakeSimCounts())
	f := &w.pass
	f.Candidates += int64(raw)
	f.AfterCheck += int64(len(cands))
	if p.opts.CheckFilter {
		f.CheckPruned += int64(raw - len(cands))
	}
}

// chargeSim books the φ_α counts one of the worker's filters kept in plain
// integers over a stage: once per stage and worker, never per posting.
//
//silkmoth:hotpath
func (w *worker) chargeSim(n filter.SimCounts) {
	w.pass.SimEvals += n.Evals
	w.pass.SimMemoHits += n.MemoHits
	w.pass.SimCounted += n.Counted
	w.pass.SimBounded += n.Bounded
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

// verifyAll refines and verifies the surviving candidates.
func (p *plan) verifyAll(ctx context.Context) ([]Match, error) {
	var out []Match
	var err error
	for i, c := range p.cands {
		if i%cancelCheckStride == 0 {
			if err = ctx.Err(); err != nil {
				out = nil
				break
			}
		}
		if m, ok := p.refineAndVerify(c); ok {
			out = append(out, m)
		}
	}
	p.w.chargeSim(p.w.ns.TakeSimCounts())
	return out, err
}

// refineAndVerify runs one candidate through the nearest-neighbor filter and
// exact verification, charging the plan's worker's pass record. On a timed
// pass the candidate's cost is split between the refine and verify stages.
//
//silkmoth:hotpath
func (p *plan) refineAndVerify(c *filter.Candidate) (Match, bool) {
	w := p.w
	f := &w.pass
	lt := startLaps(p.timed)
	pruned := p.opts.NNFilter && !filter.NNFilter(p.r, p.sig, c, w.ns, p.floors, p.pruneThreshold)
	f.RefineNanos += lt.lap()
	if pruned {
		f.NNPruned++
		return Match{}, false
	}
	f.AfterNN++
	f.Verified++
	m, ok := p.e.verifyWith(p.r, p.rdir, int(c.Set), &w.vs, &p.opts)
	f.VerifyNanos += lt.lap()
	return m, ok
}
