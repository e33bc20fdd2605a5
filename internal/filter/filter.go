// Package filter implements SilkMoth's candidate selection and refinement
// stages (paper §5): the check filter of Algorithm 1 and the nearest-
// neighbor filter of Algorithm 2, including the efficient index-based
// nearest-neighbor search, computation reuse, and early termination.
//
// Computation reuse is wider than §5.2's. Besides the nearest-neighbor
// filter reusing the check filter's best similarities within one candidate
// set, there are two ways a stage avoids the φ_α kernel:
//
//   - The memo (simMemo). A stage remembers φ_α per ⟨reference element,
//     candidate element content⟩ for the length of a pass, so an element
//     that recurs across postings and across candidate sets costs one kernel
//     call per stage, up to the evictions of a bounded table. The check
//     filter always works this way (a signature holds a subset of an
//     element's tokens, so its posting counts are not overlaps), and so does
//     the nearest-neighbor search under the edit similarities.
//   - The overlap row (Overlap). The nearest-neighbor search walks every
//     token of the reference element through one candidate set's postings,
//     so the number of postings it meets per candidate element is the size
//     of the two token sets' intersection, and Jaccard, Dice and Cosine are
//     functions of that and the two sizes. A searcher set up with
//     CountOverlaps computes φ_α from the count and never calls the kernel
//     or keeps a memo; core's verification fills its weight matrix from the
//     same rows. Both return the kernel's value bit for bit, because the
//     kernel itself is sim.XFromOverlap of the intersection it computed.
//
// SimCounts says how many pairs each way answered.
//
// All pruning in this package is conservative: a candidate is dropped only
// when a sound upper bound on its maximum matching score sits below the
// pruning threshold supplied by the caller, so no truly related set is ever
// lost (the engine's exactness guarantee).
package filter

import (
	"sync"

	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/signature"
)

// SimFunc computes φ_α between a reference element and a candidate element.
type SimFunc func(r, s *dataset.Element) float64

// Candidate carries one candidate set through the refinement stages along
// with the check-filter state reused by the nearest-neighbor filter
// (the "computation reuse" of §5.2).
type Candidate struct {
	// Set indexes the candidate in the indexed collection.
	Set int32
	// BestSim[i] is the highest φ_α seen between reference element i and
	// any candidate element sharing one of i's signature tokens, or -1
	// when no such element was probed.
	BestSim []float64
	// Passed[i] reports whether element i passed the check filter:
	// BestSim[i] ≥ Bound_i and BestSim[i] > 0. For passed elements
	// BestSim[i] is exactly the nearest-neighbor similarity (§5.2).
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
}

// Collector runs candidate selection over one inverted index, reusing its
// per-set scratch across search passes (discovery runs one pass per
// reference set, so per-pass map allocations would dominate). Candidate
// values are pooled per set slot: a slot's Candidate (and its BestSim /
// Passed backing) is allocated the first time the set is ever touched and
// recycled on every later pass, so steady-state collection performs no
// per-candidate heap allocations. The slice Collect returns is likewise
// reused — its contents are valid only until the next Collect call. A
// Collector is not safe for concurrent use; create one per worker.
//
// Retention is capped: a slot whose set has not been touched for trimAge
// passes has its pooled Candidate released at the next trim boundary
// (every trimInterval passes), so a long-lived worker's arena tracks its
// recent working set instead of every set the collection ever matched —
// O(recently touched), not O(collection). Slots a steady workload touches
// every pass are never trimmed, keeping the steady-state zero-allocation
// budget intact.
type Collector struct {
	ix *index.Inverted
	// Per-set scratch, epoch-stamped so clearing is O(1) per pass.
	seen     []uint32 // last epoch the set was touched
	rejected []bool   // valid when seen[set] == epoch
	cand     []*Candidate
	epoch    uint32
	// order records touched set ids so output order is deterministic
	// (first-touch order) and iteration avoids scanning all sets.
	order []int32
	// out is the reused survivor slice handed to the caller.
	out []*Candidate
	// memo holds the current pass's φ_α values; pass is that pass's number.
	memo simMemo
	pass uint64
}

// Trim policy: every trimInterval passes, pooled Candidates for slots
// untouched in the last trimAge passes are released to the garbage
// collector. The interval amortizes the O(collection) sweep to O(1) per
// pass; the age keeps any slot in a worker's recent working set resident.
const (
	trimInterval = 256
	trimAge      = 256
)

// NewCollector returns a collector over the given index.
func NewCollector(ix *index.Inverted) *Collector {
	n := len(ix.Collection().Sets)
	return &Collector{
		ix:       ix,
		seen:     make([]uint32, n),
		rejected: make([]bool, n),
		cand:     make([]*Candidate, n),
	}
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
	if n := len(coll.Sets); n > len(cl.seen) {
		// The collection grew (incremental appends); grow the scratch.
		cl.seen = append(cl.seen, make([]uint32, n-len(cl.seen))...)
		cl.rejected = append(cl.rejected, make([]bool, n-len(cl.rejected))...)
		cl.cand = append(cl.cand, make([]*Candidate, n-len(cl.cand))...)
	}
	cl.maybeTrim()
	cl.epoch++
	if cl.epoch == 0 { // wrapped: reset stamps
		for i := range cl.seen {
			cl.seen[i] = 0
		}
		cl.epoch = 1
	}
	cl.order = cl.order[:0]
	cl.pass = passSeq.Add(1)
	if opts.CheckFilter {
		cl.memo.reset()
	}
	n := len(r.Elements)

	for i := range sig.Elements {
		esig := &sig.Elements[i]
		if len(esig.Tokens) == 0 {
			continue
		}
		rElem := &r.Elements[i]
		for _, t := range esig.Tokens {
			// Cursor instead of List: a compressed index streams huge cold
			// lists straight off the container bytes instead of
			// materializing them for one pass.
			cur := cl.ix.Cursor(t)
			for {
				p, ok := cur.Next()
				if !ok {
					break
				}
				var c *Candidate
				if cl.seen[p.Set] == cl.epoch {
					if cl.rejected[p.Set] {
						continue
					}
					c = cl.cand[p.Set]
				} else {
					cl.seen[p.Set] = cl.epoch
					if opts.Accept != nil && !opts.Accept(p.Set) {
						cl.rejected[p.Set] = true
						continue
					}
					cl.rejected[p.Set] = false
					c = cl.candidateFor(p.Set, n)
					cl.order = append(cl.order, p.Set)
				}
				if !opts.CheckFilter {
					continue
				}
				sElem := &coll.Sets[p.Set].Elements[p.Elem]
				score := cl.memo.eval(phi, i, rElem, sElem)
				if score > c.BestSim[i] {
					c.BestSim[i] = score
					if !c.Passed[i] && score > 0 && score >= esig.Bound {
						c.Passed[i] = true
						c.NumPassed++
					}
				}
			}
		}
	}

	cl.out = cl.out[:0]
	for _, set := range cl.order {
		c := cl.cand[set]
		if opts.CheckFilter && c.NumPassed == 0 && sig.SumBound < opts.PruneThreshold {
			continue // Algorithm 1's rejection: bounds prove it unrelated
		}
		cl.out = append(cl.out, c)
	}
	return cl.out, len(cl.order)
}

// maybeTrim releases pooled Candidates for cold slots at trim boundaries.
// It runs before the pass's epoch bump, so the previous pass's survivors —
// which the caller consumed before starting this pass — are the youngest
// slots and always survive. After an epoch wrap every stamp was reset to
// 0, which makes all slots look cold at the next boundary; that one-time
// full release is the cap working as intended.
//
//silkmoth:hotpath
func (cl *Collector) maybeTrim() {
	if cl.epoch == 0 || cl.epoch%trimInterval != 0 {
		return
	}
	for set, c := range cl.cand {
		if c != nil && cl.epoch-cl.seen[set] > trimAge {
			cl.cand[set] = nil
		}
	}
}

// candidateFor returns the pooled Candidate for a set slot, allocating it
// on the slot's first-ever touch and resetting its per-pass state (BestSim
// to -1, Passed to false) sized to the reference's n elements.
func (cl *Collector) candidateFor(set int32, n int) *Candidate {
	c := cl.cand[set]
	if c == nil {
		c = &Candidate{Set: set}
		cl.cand[set] = c
	}
	if cap(c.BestSim) < n {
		c.BestSim = make([]float64, n)
		c.Passed = make([]bool, n)
	}
	c.BestSim = c.BestSim[:n]
	c.Passed = c.Passed[:n]
	for i := 0; i < n; i++ {
		c.BestSim[i] = -1
		c.Passed[i] = false
	}
	c.NumPassed = 0
	c.pass = cl.pass
	return c
}

// TakeSimCounts returns the kernel evaluations and memo hits of the Collect
// calls since the last take.
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
