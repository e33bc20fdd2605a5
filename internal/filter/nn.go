package filter

import (
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/signature"
	"silkmoth/internal/sim"
)

// NNSearcher finds nearest neighbors of reference elements inside one
// candidate set via the inverted index (§5.2, adapting the prefix-filter
// technique of Xiao et al.): its Overlap walks the reference element's
// tokens, locates the candidate set's postings by binary search, and yields
// each distinct candidate element found with the number of tokens it
// shares. What φ_α costs from there depends on how the searcher was set up.
//
// After CountOverlaps — the engine's choice for Jaccard, Dice and Cosine —
// φ_α is computed from the shared-token count and the two sizes: no token
// slice is intersected and no memo is kept, because the count is the
// intersection. Otherwise (the edit similarities, and any searcher built
// from a bare SimFunc) the kernel is asked through the per-pass memo, which
// answers for every element whose content the pass has already met, in
// this candidate set or an earlier one, so the kernel runs once per
// distinct ⟨reference element, candidate element content⟩ pair, up to the
// evictions of the fixed-size table. The two ways return the same bits.
//
// It is not safe for concurrent use; create one per worker.
type NNSearcher struct {
	ix  *index.Inverted
	phi SimFunc
	ov  Overlap
	// fromOverlap, when set, is φ as a function of ⟨|r∩s|, |r|, |s|⟩ and
	// alpha its threshold: the searcher scores from counts and phi and
	// memo go unused.
	fromOverlap sim.OverlapFunc
	alpha       float64
	// memo holds φ_α values of pass number pass (a Candidate's stamp); n
	// counts what the searches cost since the last TakeSimCounts.
	memo simMemo
	pass uint64
}

// NewNNSearcher returns a searcher over the given index and similarity.
func NewNNSearcher(ix *index.Inverted, phi SimFunc) *NNSearcher {
	return &NNSearcher{ix: ix, phi: phi}
}

// CountOverlaps makes the searcher score from overlap counts. f must be
// the token-based similarity behind the searcher's phi (so that
// phi(r, s) = sim.Alpha(f(|r∩s|, |r|, |s|), alpha) for all elements) and
// the index must hold every token of every element, which index.Build
// guarantees.
func (s *NNSearcher) CountOverlaps(f sim.OverlapFunc, alpha float64) {
	s.fromOverlap, s.alpha = f, alpha
}

// Search returns the largest φ_α between r and any element of candidate set
// `set` that shares at least one token with r. Elements sharing no token are
// not probed; callers must account for them with a no-share floor. A call
// is a pass of its own: nothing is remembered from one Search to the next.
func (s *NNSearcher) Search(r *dataset.Element, set int32) float64 {
	s.beginPass(0)
	return s.search(r, 0, set)
}

// beginPass starts the pass numbered pass with an empty memo. A counting
// searcher keeps none, and so never allocates the table.
//
//silkmoth:hotpath
func (s *NNSearcher) beginPass(pass uint64) {
	s.pass = pass
	if s.fromOverlap == nil {
		s.memo.reset()
	}
}

// TakeSimCounts returns the kernel evaluations, memo hits and pairs scored
// from counts of the searches since the last take.
func (s *NNSearcher) TakeSimCounts() SimCounts { return s.memo.take() }

// search is Search for the current pass's reference element number ref.
//
//silkmoth:hotpath
func (s *NNSearcher) search(r *dataset.Element, ref int, set int32) float64 {
	// What the walk's elements are asked for — a size when counting, a
	// memo key otherwise — is in the set's slice of the element directory.
	dir := s.ix.Directory().Set(set)
	touched := s.ov.Walk(s.ix, r.Tokens, set)
	best := 0.0
	if s.fromOverlap != nil {
		la := len(r.Tokens)
		for _, e := range touched {
			score := sim.Alpha(s.fromOverlap(s.ov.Count(e), la, int(dir[e].Size)), s.alpha)
			if score > best {
				best = score
			}
		}
		s.memo.n.Counted += int64(len(touched))
		return best
	}
	coll := s.ix.Collection()
	for _, e := range touched {
		if score := s.memo.eval(s.phi, ref, r, dir[e].Key, coll, index.Posting{Set: set, Elem: e}); score > best {
			best = score
		}
	}
	return best
}

// NNFilter applies the nearest-neighbor filter (Algorithm 2) to one
// candidate. It starts from the signature's bound sum, substitutes exact
// nearest-neighbor similarities — reusing the check filter's computations
// for passed elements — and terminates early once the running upper bound
// drops below pruneThreshold. It returns true when the candidate survives.
//
// noShareFloor[i] is a sound upper bound on φ_α(r_i, s) for candidate
// elements sharing no token with r_i: 0 under Jaccard, the chunk-count bound
// |r|/(|r|+⌈|r|/q⌉) (thresholded by α and capped at Bound_i) under edit
// similarity.
func NNFilter(r *dataset.Set, sig *signature.Signature, c *Candidate, ns *NNSearcher, noShareFloor []float64, pruneThreshold float64) bool {
	if c.pass == 0 || c.pass != ns.pass {
		ns.beginPass(c.pass)
	}
	total := sig.SumBound
	// Computation reuse: for passed elements the check filter's best
	// similarity is exactly the nearest-neighbor similarity (§5.2).
	for i, passed := range c.Passed {
		if passed {
			total += c.BestSim[i] - sig.Elements[i].Bound
		}
	}
	if total < pruneThreshold {
		return false
	}
	// Remaining elements: replace each bound by the true nearest-neighbor
	// similarity, terminating as soon as the estimate falls below the
	// threshold (Algorithm 2 lines 6-9).
	for i := range c.Passed {
		if c.Passed[i] {
			continue
		}
		esig := &sig.Elements[i]
		if esig.Bound == 0 {
			continue // bound already tight: nothing to gain
		}
		nn := ns.search(&r.Elements[i], i, c.Set)
		if floor := noShareFloor[i]; floor > nn {
			nn = floor
		}
		if nn > esig.Bound {
			nn = esig.Bound // bounds are sound; never increase the estimate
		}
		total += nn - esig.Bound
		if total < pruneThreshold {
			return false
		}
	}
	return true
}

// NoShareFloors precomputes NNFilter's per-element no-share floors for a
// reference set. Under ModeWord elements sharing no token have Jaccard 0.
// Under ModeQGram an element sharing no q-gram with r_i has at least
// ⌈|r_i|/q⌉ mismatching q-chunks, so Eds ≤ |r_i|/(|r_i|+⌈|r_i|/q⌉)
// (and NEds ≤ Eds, §7.1); a value below α collapses to 0.
func NoShareFloors(r *dataset.Set, sig *signature.Signature, mode dataset.TokenMode, alpha float64) []float64 {
	return AppendNoShareFloors(nil, r, sig, mode, alpha)
}

// AppendNoShareFloors is NoShareFloors into a caller-owned buffer: dst is
// resized (reusing its capacity) and returned, so per-pass workers compute
// floors without allocating.
func AppendNoShareFloors(dst []float64, r *dataset.Set, sig *signature.Signature, mode dataset.TokenMode, alpha float64) []float64 {
	n := len(r.Elements)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	floors := dst[:n]
	for i := range floors {
		floors[i] = 0
	}
	if mode == dataset.ModeWord {
		return floors
	}
	for i := range r.Elements {
		el := &r.Elements[i]
		if el.Length == 0 || len(el.Chunks) == 0 {
			continue
		}
		raw := float64(el.Length) / float64(int(el.Length)+len(el.Chunks))
		if raw < alpha {
			raw = 0
		}
		if b := sig.Elements[i].Bound; raw > b {
			raw = b
		}
		floors[i] = raw
	}
	return floors
}
