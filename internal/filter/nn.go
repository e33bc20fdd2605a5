package filter

import (
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/signature"
)

// NNSearcher finds nearest neighbors of reference elements inside one
// candidate set via the inverted index (§5.2, adapting the prefix-filter
// technique of Xiao et al.): it walks the reference element's tokens,
// locates the candidate set's postings by binary search, and needs φ_α
// against each distinct candidate element found. Its per-pass memo answers
// for every element whose content the pass has already met, in this
// candidate set or an earlier one, so the kernel runs once per distinct
// ⟨reference element, candidate element content⟩ pair, up to the evictions
// of the fixed-size table. It is not safe for concurrent use; create one
// per worker.
type NNSearcher struct {
	ix  *index.Inverted
	phi SimFunc
	// visited implements O(1) per-element dedup across calls: an element
	// is visited when visited[elem] == epoch.
	visited []uint32
	epoch   uint32
	// scratch is the reusable decode buffer SetRangeInto fills when the
	// probed range must come off a compressed container, keeping per-probe
	// work allocation-free in steady state.
	scratch []index.Posting
	// memo holds φ_α values of pass number pass (a Candidate's stamp).
	memo simMemo
	pass uint64
}

// NewNNSearcher returns a searcher over the given index and similarity.
func NewNNSearcher(ix *index.Inverted, phi SimFunc) *NNSearcher {
	return &NNSearcher{ix: ix, phi: phi}
}

// Search returns the largest φ_α between r and any element of candidate set
// `set` that shares at least one token with r. Elements sharing no token are
// not probed; callers must account for them with a no-share floor. A call
// is a pass of its own: nothing is remembered from one Search to the next.
func (s *NNSearcher) Search(r *dataset.Element, set int32) float64 {
	s.beginPass(0)
	return s.search(r, 0, set)
}

// beginPass empties the memo for the pass numbered pass.
//
//silkmoth:hotpath
func (s *NNSearcher) beginPass(pass uint64) {
	s.pass = pass
	s.memo.reset()
}

// TakeSimCounts returns the kernel evaluations and memo hits of the
// searches since the last take.
func (s *NNSearcher) TakeSimCounts() SimCounts { return s.memo.take() }

// search is Search for the current pass's reference element number ref.
//
//silkmoth:hotpath
func (s *NNSearcher) search(r *dataset.Element, ref int, set int32) float64 {
	coll := s.ix.Collection()
	elems := coll.Sets[set].Elements
	if len(s.visited) < len(elems) {
		s.visited = append(s.visited, make([]uint32, len(elems)-len(s.visited))...)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale marks could collide, reset
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	best := 0.0
	for _, t := range r.Tokens {
		var rng []index.Posting
		rng, s.scratch = s.ix.SetRangeInto(t, set, s.scratch)
		for _, p := range rng {
			if s.visited[p.Elem] == s.epoch {
				continue
			}
			s.visited[p.Elem] = s.epoch
			if score := s.memo.eval(s.phi, ref, r, &elems[p.Elem]); score > best {
				best = score
			}
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
		raw := float64(el.Length) / float64(el.Length+len(el.Chunks))
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
