// Package filter implements SilkMoth's candidate selection and refinement
// stages (paper §5): the check filter of Algorithm 1 and the nearest-
// neighbor filter of Algorithm 2, including the efficient index-based
// nearest-neighbor search, computation reuse, and early termination.
//
// Computation reuse is wider than §5.2's. Besides the nearest-neighbor
// filter reusing the check filter's best similarities within one candidate
// set, there are three ways a stage avoids the φ_α kernel:
//
//   - The memo (simMemo). A stage remembers φ_α per ⟨reference element,
//     candidate element content⟩ for the length of a pass, so an element
//     that recurs across postings and across candidate sets costs one kernel
//     call per stage, up to the evictions of a bounded table. It is what the
//     check filter asks for every pair the third way leaves over, and the
//     nearest-neighbor search under the edit similarities.
//   - The overlap row (Overlap). The nearest-neighbor search walks every
//     token of the reference element through one candidate set's postings,
//     so the number of postings it meets per candidate element is the size
//     of the two token sets' intersection, and Jaccard, Dice and Cosine are
//     functions of that and the two sizes. A searcher set up with
//     CountOverlaps computes φ_α from the count and never calls the kernel
//     or keeps a memo; core's verification fills its weight matrix from the
//     same rows. Both return the kernel's value bit for bit, because the
//     kernel itself is sim.XFromOverlap of the intersection it computed.
//   - The bound. A signature holds a subset of an element's tokens, so the
//     check filter's posting counts are not overlaps — but they bound them.
//     A collector set up with CountOverlaps merges the posting lists of one
//     reference element's signature tokens, learns per candidate element
//     how many of those tokens it holds, and with the two sizes bounds φ_α
//     from above (the count filter of the prefix-filter literature, Li et
//     al.'s ScanCount, applied inside the check filter). A pair whose bound
//     fails the element test is decided without memo, kernel or element
//     load; where the signature is the whole element the bound is the
//     value. Under the edit similarities a collector set up with
//     BoundByLength does the same with the two lengths alone. See
//     collectCounted and lenWindow.
//
// SimCounts says how many pairs each way answered.
//
// What both stages do per posting is kept to dense arrays. A posting names
// an element; what the stages need of it — its memo key, its size — comes
// from the index's element directory (index.Directory), not from the
// collection, and the element itself is loaded only when a kernel has to
// run. The Collector's per-pass state is flat as well: an epoch-stamped
// entry per set and arenas of one row per candidate. No object is kept per
// set, so there is nothing to sweep: what a worker retains is bounded by
// one rule on the arenas' capacity (see Collector).
//
// All pruning in this package is conservative: a candidate is dropped only
// when a sound upper bound on its maximum matching score sits below the
// pruning threshold supplied by the caller, so no truly related set is ever
// lost (the engine's exactness guarantee).
package filter

import (
	"math"
	"sync"

	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/signature"
	"silkmoth/internal/sim"
	"silkmoth/internal/tokens"
)

// SimFunc computes φ_α between a reference element and a candidate element.
type SimFunc func(r, s *dataset.Element) float64

// Candidate carries one candidate set through the refinement stages along
// with the check-filter state reused by the nearest-neighbor filter
// (the "computation reuse" of §5.2). A Candidate that Collector.Collect
// returned is a view: BestSim and Passed are rows of the collector's
// arenas, valid until its next Collect.
type Candidate struct {
	// Set indexes the candidate in the indexed collection.
	Set int32
	// BestSim[i], where Passed[i], is the highest φ_α between reference
	// element i and any candidate element sharing one of i's signature
	// tokens. Where element i did not pass it is only a lower bound on
	// that — -1 when nothing was scored — because a collector that bounds
	// (CountOverlaps, BoundByLength) scores no pair that cannot pass;
	// nothing reads it there.
	BestSim []float64
	// Passed[i] reports whether element i passed the check filter: its
	// best similarity is positive and at least Bound_i. For passed
	// elements BestSim[i] is exactly the nearest-neighbor similarity
	// (§5.2).
	Passed []bool
	// NumPassed counts true entries of Passed.
	NumPassed int
	// pass is the process-unique number of the Collect call that produced
	// the candidate (0 for one built by hand): what NNFilter checks before
	// it trusts the searcher's memo.
	pass uint64
}

// Options configures candidate collection.
type Options struct {
	// Accept, when non-nil, is consulted once per distinct set id;
	// sets that fail it never become candidates (self-join ordering and
	// size filters live here).
	Accept func(set int32) bool
	// CheckFilter enables the φ-bound test of Algorithm 1 lines 5-6.
	// When disabled, every accepted set sharing a signature token
	// becomes a candidate and no similarities are computed.
	CheckFilter bool
	// PruneThreshold is the score bound below which a candidate may be
	// discarded (θ minus the engine's pruning slack).
	PruneThreshold float64
	// Lo and Hi, when Hi > 0, restrict the pass to the sets with ids in
	// [Lo, Hi): every posting list is read through a cursor cut to that
	// range (index.Cursor.Cut). Hi = 0 reads whole lists.
	Lo, Hi int32
	// Lists, when non-nil, holds the signature's posting lists opened once
	// (OpenLists), which Collect cuts instead of opening its own: the set-id
	// ranges of one pass then resolve each list once between them. With
	// Advance, Collect also moves every list past Hi (index.Cursor.Take),
	// so that a later range from Hi on cuts it without a search; only the
	// goroutine that owns Lists may ask for that.
	Lists   []index.Cursor
	Advance bool
	// Resume continues the collector's previous Collect — the same
	// reference and signature over another set range — under the same pass
	// number and memo, so that the φ_α values one range computed answer for
	// the next, here and in the NNSearcher that refines both.
	Resume bool
}

// OpenLists appends to dst a cursor over the posting list of every token of
// sig, in signature order: what Options.Lists holds.
func OpenLists(ix *index.Inverted, sig *signature.Signature, dst []index.Cursor) []index.Cursor {
	for i := range sig.Elements {
		for _, t := range sig.Elements[i].Tokens {
			dst = append(dst, ix.Cursor(t))
		}
	}
	return dst
}

// open sets dst to the posting list of token t, the j-th of the signature,
// for a pass under opts. A cursor is a few hundred bytes, so it is written
// in place rather than returned.
//
//silkmoth:hotpath
func (cl *Collector) open(dst *index.Cursor, j int, t tokens.ID, opts *Options) {
	switch {
	case opts.Lists == nil:
		*dst = cl.ix.Cursor(t)
	case opts.Advance:
		*dst = opts.Lists[j].Take(opts.Lo, opts.Hi)
		return
	default:
		*dst = opts.Lists[j]
	}
	if opts.Hi != 0 {
		dst.Cut(opts.Lo, opts.Hi)
	}
}

// Collector runs candidate selection over one inverted index, keeping all
// of a pass's state in flat arrays it reuses from pass to pass (discovery
// runs one pass per reference set, so per-pass allocation would dominate):
//
//   - state, one 8-byte entry per set of the collection, epoch-stamped so
//     that starting a pass costs nothing per set: whether the pass has met
//     the set, and either its arena row or Accept's rejection;
//   - the arenas, one row per accepted set in first-touch order: the set
//     id, how many reference elements have passed their bound, and the best
//     similarity per reference element (row k of an n-element reference is
//     best[k*n:(k+1)*n]).
//
// The posting loop works on those and on the index's element directory
// only. There are two of it: Collect's own, one posting at a time in
// signature-token order, and collectCounted, which a collector set up with
// CountOverlaps runs when the check filter is on and which meets each
// ⟨reference element, candidate element⟩ pair once with a count. Both fill
// the same arenas, so everything after the loop is shared. Whether an
// element passed is a function of its best similarity
// (best > 0 and best ≥ Bound_i), so no flag is kept per cell: Candidate
// values are materialised after the loop, for the sets the check filter
// kept, with BestSim a view of the set's arena row and Passed computed into
// an arena of its own. Everything Collect returns — the slice, the
// Candidates, their BestSim and Passed — is the collector's memory and
// valid only until the next Collect call. A Collector is not safe for
// concurrent use; create one per worker.
//
// Retention is one rule on capacity. The arenas keep what they grew to, so
// a steady workload allocates nothing; every retainWindow passes the
// collector compares that capacity with the largest pass of the window and
// lets go of arenas more than retainSlack times larger, so a long-lived
// worker holds O(what its recent passes needed) beside the per-set state,
// not what its broadest pass ever touched.
type Collector struct {
	ix *index.Inverted
	// state is indexed by set id; an entry belongs to the pass in flight
	// when its epoch is the collector's.
	state []setState
	epoch uint32
	// The arenas, indexed by row.
	sets  []int32
	npass []int32
	best  []float64
	// What Collect hands out: the survivors' Passed rows, their Candidate
	// values, and the slice of pointers to those.
	passed []bool
	cands  []Candidate
	out    []*Candidate
	// memo holds the current pass's φ_α values; pass is that pass's number.
	memo simMemo
	pass uint64
	// fromOverlap, when set (CountOverlaps), is φ as a function of
	// ⟨|r∩s|, |r|, |s|⟩ and alpha its threshold: the check filter then runs
	// collectCounted, whose cursor heads are headAt and headCur.
	fromOverlap sim.OverlapFunc
	alpha       float64
	headAt      []uint64
	headCur     []index.Cursor
	// lenBound, when set (BoundByLength), bounds φ_α by the two elements'
	// lengths: Collect's own loop tests a posting's length against the
	// window it opens (lenWindow) before the memo.
	lenBound sim.LenBoundFunc
	// window counts the passes since the last retention check; peakRows
	// and peakCells are the largest len(sets) and len(best) among them.
	window, peakRows, peakCells int
}

// setState is what the collector knows about one set during a pass.
type setState struct {
	epoch uint32 // the pass that last met the set
	idx   int32  // its arena row in that pass; negative: Accept rejected it
}

// Retention policy (Collector.retain).
const (
	retainWindow = 256
	retainSlack  = 4
)

// NewCollector returns a collector over the given index.
func NewCollector(ix *index.Inverted) *Collector {
	return &Collector{ix: ix, state: make([]setState, len(ix.Collection().Sets))}
}

// Collect implements candidate selection plus the check filter
// (Algorithm 1). It probes the inverted index with every signature token
// and needs φ_α once per posting: a pair sharing k signature tokens is
// asked for k times, and identical elements of different sets once each.
// The kernel runs far less often — the collector's per-pass memo answers
// every repeat of a ⟨reference element, candidate element content⟩ pair, so
// kernel calls per pass are bounded by the distinct such pairs plus the
// evictions of the fixed-size table (and by the posting count, which they
// equal only when no content repeats). TakeSimCounts reports both numbers.
// The memo is keyed by the candidate element's content key, which the
// posting loop reads from the index's element directory: the element itself
// is loaded only when the kernel has to run. After BoundByLength a posting
// whose length cannot pass is dropped before the memo; after CountOverlaps,
// with the check filter on, the postings go through collectCounted instead
// of the loop below.
//
// A candidate is dropped only when no pair passed its element bound test
// and the signature's SumBound proves every such set unrelated
// (SumBound < PruneThreshold). Signatures whose SumBound exceeds θ — the
// CombUnweighted baseline — therefore keep all matching candidates, which
// reproduces the baseline's larger candidate sets.
//
// The second result is the raw candidate count: accepted sets sharing at
// least one signature token, before the check filter's rejection.
//
//silkmoth:hotpath
func (cl *Collector) Collect(r *dataset.Set, sig *signature.Signature, phi SimFunc, opts Options) ([]*Candidate, int) {
	coll := cl.ix.Collection()
	if n := len(coll.Sets); n > len(cl.state) {
		// The collection grew (incremental appends); grow the state.
		cl.state = append(cl.state, make([]setState, n-len(cl.state))...)
	}
	cl.retain()
	cl.epoch++
	if cl.epoch == 0 { // wrapped: stale stamps could collide, reset
		clear(cl.state)
		cl.epoch = 1
	}
	if !opts.Resume {
		cl.pass = passSeq.Add(1)
		if opts.CheckFilter {
			cl.memo.reset()
		}
	}
	n := len(r.Elements)
	if cl.fromOverlap != nil && opts.CheckFilter {
		cl.collectCounted(r, sig, phi, &opts)
		return cl.finish(n, sig, opts)
	}
	dir := cl.ix.Directory()
	state, epoch := cl.state, cl.epoch
	sets, npass, best := cl.sets[:0], cl.npass[:0], cl.best[:0]

	j := 0 // the signature token's number
	for i := range sig.Elements {
		esig := &sig.Elements[i]
		if len(esig.Tokens) == 0 {
			continue
		}
		rElem := &r.Elements[i]
		lo, hi := int32(0), int32(math.MaxInt32)
		if cl.lenBound != nil && opts.CheckFilter {
			lo, hi = lenWindow(cl.lenBound, rElem.Length, esig.Bound)
		}
		for _, t := range esig.Tokens {
			// Cursor instead of List: a compressed index streams huge cold
			// lists straight off the container bytes instead of
			// materializing them for one pass.
			var cur index.Cursor
			cl.open(&cur, j, t, &opts)
			j++
			for {
				p, ok := cur.Next()
				if !ok {
					break
				}
				st := &state[p.Set]
				if st.epoch != epoch {
					st.epoch = epoch
					if opts.Accept != nil && !opts.Accept(p.Set) {
						st.idx = -1
						continue
					}
					st.idx = int32(len(sets))
					sets = append(sets, p.Set)
					npass = append(npass, 0)
					best = appendRow(best, n)
				} else if st.idx < 0 {
					continue
				}
				if !opts.CheckFilter {
					continue
				}
				ent := dir.At(p)
				if ent.Size < lo || ent.Size > hi {
					cl.memo.n.Bounded++
					continue
				}
				score := cl.memo.eval(phi, i, rElem, ent.Key, coll, p)
				if b := &best[int(st.idx)*n+i]; score > *b {
					if passes(score, esig.Bound) && !passes(*b, esig.Bound) {
						npass[st.idx]++
					}
					*b = score
				}
			}
		}
	}
	cl.sets, cl.npass, cl.best = sets, npass, best
	return cl.finish(n, sig, opts)
}

// finish turns the arenas a posting loop filled for a reference of n
// elements into what Collect returns.
//
//silkmoth:hotpath
func (cl *Collector) finish(n int, sig *signature.Signature, opts Options) ([]*Candidate, int) {
	sets, npass, best := cl.sets, cl.npass, cl.best

	// Algorithm 1's rejection: a set none of whose elements passed is
	// dropped when the bounds prove it unrelated.
	keepAll := !opts.CheckFilter || sig.SumBound >= opts.PruneThreshold
	m := len(sets)
	if !keepAll {
		m = 0
		for _, c := range npass {
			if c > 0 {
				m++
			}
		}
	}
	cl.cands, cl.passed, cl.out = sized(cl.cands, m), sized(cl.passed, m*n), sized(cl.out, m)[:0]
	for k, set := range sets {
		if !keepAll && npass[k] == 0 {
			continue
		}
		q := len(cl.out)
		c := &cl.cands[q]
		*c = Candidate{
			Set:       set,
			BestSim:   best[k*n : (k+1)*n : (k+1)*n],
			Passed:    cl.passed[q*n : (q+1)*n : (q+1)*n],
			NumPassed: int(npass[k]),
			pass:      cl.pass,
		}
		for i := range c.Passed {
			// Without the check filter no similarity was computed.
			c.Passed[i] = opts.CheckFilter && passes(c.BestSim[i], sig.Elements[i].Bound)
		}
		cl.out = append(cl.out, c)
	}
	return cl.out, len(sets)
}

// CountOverlaps makes the check filter decide pairs from counts where it
// can. f must be the token-based similarity behind the phi Collect is given
// (so that phi(r, s) = sim.Alpha(f(|r∩s|, |r|, |s|), alpha) for all
// elements), non-decreasing in the overlap, and the index's directory must
// hold every element's token count, which it does under ModeWord. Collect
// then returns the same candidates with the same Passed, NumPassed and —
// on passed cells — BestSim as without, in a different order (see
// collectCounted), and runs the kernel for far fewer pairs.
func (cl *Collector) CountOverlaps(f sim.OverlapFunc, alpha float64) {
	cl.fromOverlap, cl.alpha = f, alpha
}

// BoundByLength makes the check filter drop a posting whose two elements'
// lengths alone keep φ_α below the reference element's bound, before the
// memo is probed and without loading the element (SimCounts.Bounded). ub
// must bound the phi Collect is given — phi(r, s) ≤ ub(r.Length, s.Length)
// for all elements — and must not rise as its second argument moves away
// from its first; the index's directory holds every element's Length. What
// Collect returns changes as under CountOverlaps, except that the order
// stays: the loop is the same.
func (cl *Collector) BoundByLength(ub sim.LenBoundFunc) { cl.lenBound = ub }

// lenWindowSteps is how far from the reference element's length lenWindow
// looks for the end of the window on either side before it calls that side
// open: the price of a window is at most twice that many calls of the
// bound per reference element, whatever the thresholds.
const lenWindowSteps = 64

// lenWindow returns the candidate lengths lo..hi outside of which
// ub(lr, ·) fails the element test against bound. ub falls as the lengths
// move apart, so the lengths that pass are an interval around lr; it is
// found by asking ub itself, one length at a time, so no rounding can put a
// length on the wrong side. An empty window is lo > hi.
//
//silkmoth:hotpath
func lenWindow(ub sim.LenBoundFunc, lr int32, bound float64) (lo, hi int32) {
	if !passes(ub(int(lr), int(lr)), bound) {
		return 1, 0
	}
	lo, hi = lr, lr
	for lo > 0 && passes(ub(int(lr), int(lo-1)), bound) {
		if lo--; lr-lo == lenWindowSteps {
			lo = 0
		}
	}
	for passes(ub(int(lr), int(hi+1)), bound) {
		if hi++; hi-lr == lenWindowSteps {
			return lo, math.MaxInt32
		}
	}
	return lo, hi
}

// collectCounted is Collect's posting loop for a collector set up with
// CountOverlaps, the check filter on. It fills the arenas as Collect's own
// loop does, but meets every ⟨reference element, candidate element⟩ pair
// once, with a count: the posting lists of reference element i's signature
// tokens L_i are each sorted by ⟨set, element⟩, so scanning their cursors'
// heads for the smallest pair and advancing every cursor that stands on it
// yields the distinct pairs in order, each with the number c of L_i's
// tokens the candidate element s holds (the count filter of the
// prefix-filter line of work, inside one reference element). L_i ⊆ r_i, so
// |r_i ∩ s| ≤ min(c + |r_i| − |L_i|, |s|), and φ_α at that overlap — f is
// monotone, |s| comes from the directory — bounds φ_α(r_i, s) from above:
//
//   - a pair whose bound fails the element test cannot pass, and cannot
//     raise the best similarity of an element that passed: it is dropped
//     with no memo probe and no element load (SimCounts.Bounded);
//   - when L_i is all of r_i, c is the overlap and the pair's φ_α is the
//     bound, the kernel's value bit for bit (SimCounts.Counted);
//   - every other pair goes through the memo as in Collect's loop.
//
// Dropping a pair leaves its cell of the best-similarity arena alone, so
// on a cell that did not pass, BestSim is a lower bound on the best
// similarity met. Within one reference element the sets are met in set
// order where Collect's loop meets them token by token, so the arena rows,
// and the candidates Collect returns, come in a different order; which
// sets, and what is in a row, does not depend on it.
//
// L_i ⊆ r_i and duplicate-free is true of every signature scheme under
// ModeWord; sortedSubset checks it, and an element that fails it is given
// the bound of an empty L_i, which any signature supports.
//
//silkmoth:hotpath
func (cl *Collector) collectCounted(r *dataset.Set, sig *signature.Signature, phi SimFunc, opts *Options) {
	coll := cl.ix.Collection()
	accept := opts.Accept
	n := len(r.Elements)
	dir := cl.ix.Directory()
	state, epoch := cl.state, cl.epoch
	sets, npass, best := cl.sets[:0], cl.npass[:0], cl.best[:0]
	f, alpha := cl.fromOverlap, cl.alpha
	var counted, bounded int64

	j := 0       // the signature token's number
	written := 0 // headCur slots this call opened a cursor in
	for i := range sig.Elements {
		esig := &sig.Elements[i]
		if len(esig.Tokens) == 0 {
			continue
		}
		written = max(written, len(esig.Tokens))
		rElem := &r.Elements[i]
		la := len(rElem.Tokens)
		rest := la - len(esig.Tokens) // the tokens of r_i the count says nothing about
		if !sortedSubset(esig.Tokens, rElem.Tokens) {
			rest = la
		}
		at, cur := cl.headAt[:0], cl.headCur[:0]
		for _, t := range esig.Tokens {
			if len(cur) == cap(cur) {
				cur = append(cur, index.Cursor{})[:len(cur)]
			}
			c := &cur[:len(cur)+1][len(cur)]
			cl.open(c, j, t, opts)
			j++
			if p, ok := c.Next(); ok {
				at, cur = append(at, pairOf(p)), cur[:len(cur)+1]
			}
		}
		cl.headAt, cl.headCur = at, cur // keep what the appends grew
		for len(at) > 0 {
			pair := at[0]
			for _, a := range at[1:] {
				pair = min(pair, a)
			}
			c := 0
			for j := 0; j < len(at); {
				if at[j] != pair {
					j++
					continue
				}
				c++
				if p, ok := cur[j].Next(); ok {
					at[j] = pairOf(p)
					j++
				} else { // exhausted: the last head takes its place
					last := len(at) - 1
					at[j], cur[j] = at[last], cur[last]
					at, cur = at[:last], cur[:last]
				}
			}
			p := index.Posting{Set: int32(pair >> 32), Elem: int32(uint32(pair))}
			st := &state[p.Set]
			if st.epoch != epoch {
				st.epoch = epoch
				if accept != nil && !accept(p.Set) {
					st.idx = -1
					continue
				}
				st.idx = int32(len(sets))
				sets = append(sets, p.Set)
				npass = append(npass, 0)
				best = appendRow(best, n)
			} else if st.idx < 0 {
				continue
			}
			ent := dir.At(p)
			size := int(ent.Size)
			score := sim.Alpha(f(min(c+rest, size), la, size), alpha) // the bound
			switch {
			case rest == 0: // and the value
				counted++
			case !passes(score, esig.Bound):
				bounded++
				continue
			default:
				score = cl.memo.eval(phi, i, rElem, ent.Key, coll, p)
			}
			if b := &best[int(st.idx)*n+i]; score > *b {
				if passes(score, esig.Bound) && !passes(*b, esig.Bound) {
					npass[st.idx]++
				}
				*b = score
			}
		}
	}
	cl.sets, cl.npass, cl.best = sets, npass, best
	cl.memo.n.Counted += counted
	cl.memo.n.Bounded += bounded
	// Heads that ran dry still alias the lists they walked; a pooled worker
	// must not keep those alive until its next pass (Rebuild replaces them).
	clear(cl.headCur[:min(written, cap(cl.headCur))])
}

// pairOf packs a posting so that integer order is ⟨set, element⟩ order.
//
//silkmoth:hotpath
func pairOf(p index.Posting) uint64 { return uint64(uint32(p.Set))<<32 | uint64(uint32(p.Elem)) }

// sortedSubset reports whether sub is a subsequence of the sorted,
// duplicate-free super: a duplicate-free subset of it, in the same order.
//
//silkmoth:hotpath
func sortedSubset(sub, super []tokens.ID) bool {
	j := 0
	for _, t := range sub {
		for j < len(super) && super[j] < t {
			j++
		}
		if j == len(super) || super[j] != t {
			return false
		}
		j++
	}
	return true
}

// passes is the check filter's element test (Algorithm 1 line 5): the best
// similarity v found for a reference element reaches its signature bound.
//
//silkmoth:hotpath
func passes(v, bound float64) bool { return v > 0 && v >= bound }

// appendRow extends the best-similarity arena by one row of n cells, all
// -1: nothing probed yet.
//
//silkmoth:hotpath
func appendRow(best []float64, n int) []float64 {
	best = append(best, make([]float64, n)...) // extends in place; no temporary is allocated
	row := best[len(best)-n:]
	for j := range row {
		row[j] = -1
	}
	return best
}

// sized returns s with length n, reusing its capacity when that suffices;
// the contents are unspecified.
//
//silkmoth:hotpath
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// retain is the arenas' retention rule, run at the start of every pass (the
// caller has consumed the previous pass's candidates by then): once per
// retainWindow passes, arenas whose capacity exceeds retainSlack times what
// the window's largest pass used are released, and the passes that follow
// grow new ones to their own size. A workload that keeps needing what it
// holds is never released, so its steady state stays allocation-free.
//
//silkmoth:hotpath
func (cl *Collector) retain() {
	cl.peakRows = max(cl.peakRows, len(cl.sets))
	cl.peakCells = max(cl.peakCells, len(cl.best))
	if cl.window++; cl.window < retainWindow {
		return
	}
	if cap(cl.sets) > retainSlack*cl.peakRows {
		cl.sets, cl.npass, cl.cands, cl.out = nil, nil, nil, nil
	}
	if cap(cl.best) > retainSlack*cl.peakCells {
		cl.best, cl.passed = nil, nil
	}
	cl.window, cl.peakRows, cl.peakCells = 0, 0, 0
}

// TakeSimCounts returns how the Collect calls since the last take came by
// their similarities.
func (cl *Collector) TakeSimCounts() SimCounts { return cl.memo.take() }

// collectorPool recycles whole Collectors for the single-shot Collect form.
// Entries are bound to the index they were built over; a pooled collector
// whose index differs from the caller's is discarded and rebuilt.
var collectorPool sync.Pool

// Collect is the single-shot convenience form of Collector.Collect: it
// borrows a pooled Collector (the collection logic lives only on the
// Collector; this function owns no duplicate of it) and deep-copies the
// survivors out of the collector's scratch, so the returned candidates stay
// valid indefinitely — unlike Collector.Collect's reused buffers.
func Collect(r *dataset.Set, sig *signature.Signature, ix *index.Inverted, phi SimFunc, opts Options) ([]*Candidate, int) {
	cl, _ := collectorPool.Get().(*Collector)
	if cl == nil || cl.ix != ix {
		cl = NewCollector(ix)
	}
	cands, raw := cl.Collect(r, sig, phi, opts)
	out := make([]*Candidate, len(cands))
	for i, c := range cands {
		cp := &Candidate{
			Set:       c.Set,
			BestSim:   append([]float64(nil), c.BestSim...),
			Passed:    append([]bool(nil), c.Passed...),
			NumPassed: c.NumPassed,
			pass:      c.pass,
		}
		out[i] = cp
	}
	collectorPool.Put(cl)
	return out, raw
}
