package core

import (
	"silkmoth/internal/dataset"
	"silkmoth/internal/filter"
	"silkmoth/internal/index"
	"silkmoth/internal/matching"
	"silkmoth/internal/sim"
)

// scoreThreshold returns the minimum maximum-matching score for two sets of
// the given sizes to be related: θ = δ|R| under SET-CONTAINMENT, and
// δ(|R|+|S|)/(1+δ) under SET-SIMILARITY (solving M/(|R|+|S|-M) ≥ δ for M).
//
//silkmoth:hotpath
func scoreThreshold(metric Metric, delta float64, nR, nS int) float64 {
	if metric == SetContainment {
		return delta * float64(nR)
	}
	return delta * float64(nR+nS) / (1 + delta)
}

// relatedness converts a matching score into the metric value.
//
//silkmoth:hotpath
func relatedness(metric Metric, score float64, nR, nS int) float64 {
	if metric == SetContainment {
		return score / float64(nR)
	}
	return score / (float64(nR+nS) - score)
}

// pairSim is the dense matching.Weights of one ⟨R, S⟩ pair: one φ_α kernel
// call per cell. It is what verification uses whenever the cells that can
// score are not known beforehand — the edit similarities (elements sharing
// no q-gram can still score), sets that are not in the index (MatchScore)
// and the brute-force oracle, which must not lean on the index it checks.
// It lives inside verifyScratch so setting the pair is a field write, never
// a closure allocation.
type pairSim struct {
	phi  filter.SimFunc
	r, s *dataset.Set
}

//silkmoth:hotpath
func (p *pairSim) Row(i int, remap []int32, dst []float64) {
	re, els := &p.r.Elements[i], p.s.Elements
	if remap == nil {
		for j := range dst {
			dst[j] = p.phi(re, &els[j])
		}
		return
	}
	for j, k := range remap {
		if k >= 0 {
			dst[k] = p.phi(re, &els[j])
		}
	}
}

// overlapSim is the sparse matching.Weights of a reference R against
// indexed set number set under a token-based similarity: a row is zeroed,
// then the overlap row of r_i (filter.Overlap) names the elements of S that
// share a token with it and how many, and only those cells are written,
// each from its count. Every other cell of the dense fill is 0 as well —
// no shared token, no similarity — so the matrix is the same, cell for
// cell, and so is the score.
type overlapSim struct {
	ix          *index.Inverted
	fromOverlap sim.OverlapFunc
	alpha       float64
	ov          filter.Overlap
	r           *dataset.Set
	set         int32
}

//silkmoth:hotpath
func (p *overlapSim) Row(i int, remap []int32, dst []float64) {
	clear(dst)
	re, dir := &p.r.Elements[i], p.ix.Directory().Set(p.set)
	la := len(re.Tokens)
	for _, e := range p.ov.Walk(p.ix, re.Tokens, p.set) {
		k := e
		if remap != nil {
			if k = remap[e]; k < 0 {
				continue
			}
		}
		dst[k] = sim.Alpha(p.fromOverlap(p.ov.Count(e), la, int(dir[e].Size)), p.alpha)
	}
}

// verifyScratch bundles the reusable state of exact verification: the
// matching scratch (flat Hungarian buffers, reduction tables), the
// interned element-key slices the §5.3 reduction compares, and the two
// weight sources. One lives in every worker; verification performs no
// per-pair heap allocations.
type verifyScratch struct {
	mat        matching.Scratch
	keyR, keyS []int32
	ps         pairSim
	os         overlapSim
}

// verify computes the exact maximum matching score between r and collection
// set s (with the §5.3 reduction when enabled) and reports whether the pair
// is related under the engine's metric.
func (e *Engine) verify(r *dataset.Set, s int, vs *verifyScratch) (Match, bool) {
	return e.verifyWith(r, s, vs, &e.opts)
}

// verifyWith is verify under explicit effective options — the engine's
// configuration with any per-query overrides (δ, reduction) applied. The
// search pipeline always routes through it so query overrides reach exact
// verification. A worker's scratch, set up by newWorker for a token-based
// similarity, reads the weights off the inverted index (overlapSim); a zero
// verifyScratch — the brute-force oracle's — calls the kernel on every cell.
//
//silkmoth:hotpath
func (e *Engine) verifyWith(r *dataset.Set, s int, vs *verifyScratch, o *Options) (Match, bool) {
	sSet := &e.coll.Sets[s]
	var score float64
	if vs.os.fromOverlap != nil {
		vs.os.r, vs.os.set = r, int32(s)
		score = matchScore(r, sSet, vs, &vs.os, o.Reduction)
	} else {
		score = e.matchScoreDense(r, sSet, vs, o.Reduction)
	}
	nR, nS := len(r.Elements), len(sSet.Elements)
	t := scoreThreshold(o.Metric, o.Delta, nR, nS)
	if score < t-acceptEps {
		return Match{}, false
	}
	return Match{
		Set:         s,
		Relatedness: relatedness(o.Metric, score, nR, nS),
		Score:       score,
	}, true
}

// matchScoreDense computes |R ∩̃ S| between two tokenized sets, neither of
// which need be indexed, with one φ_α kernel call per cell.
//
//silkmoth:hotpath
func (e *Engine) matchScoreDense(r, s *dataset.Set, vs *verifyScratch, reduction bool) float64 {
	vs.ps.phi = e.phi
	vs.ps.r, vs.ps.s = r, s
	return matchScore(r, s, vs, &vs.ps, reduction)
}

// matchScore computes |R ∩̃ S| over the weights wts supplies. With the
// reduction enabled it compares the elements' build-time interned keys
// (dataset.Element.Key) — integers, never materialized strings.
//
//silkmoth:hotpath
func matchScore(r, s *dataset.Set, vs *verifyScratch, wts matching.Weights, reduction bool) float64 {
	if reduction {
		vs.keyR = appendElementKeys(vs.keyR[:0], r.Elements)
		vs.keyS = appendElementKeys(vs.keyS[:0], s.Elements)
		return vs.mat.ScoreReduced(vs.keyR, vs.keyS, wts)
	}
	return vs.mat.Score(len(r.Elements), len(s.Elements), wts)
}

// appendElementKeys copies the elements' interned content keys into dst
// (dataset.NoKey becomes the reduction's negative "never reduce" marker).
//
//silkmoth:hotpath
func appendElementKeys(dst []int32, els []dataset.Element) []int32 {
	for i := range els {
		dst = append(dst, int32(els[i].Key))
	}
	return dst
}

// BruteForceSearch is the naive oracle for RELATED SET SEARCH: it verifies r
// against every set in the collection (subject only to the metric's size
// requirement), with no signatures or filters. It returns exactly what
// Search must return.
func (e *Engine) BruteForceSearch(r *dataset.Set) []Match {
	var out []Match
	var vs verifyScratch
	nR := len(r.Elements)
	if nR == 0 {
		return nil
	}
	for s := range e.coll.Sets {
		if !e.sizeAccept(nR, len(e.coll.Sets[s].Elements)) {
			continue
		}
		if m, ok := e.verify(r, s, &vs); ok {
			out = append(out, m)
		}
	}
	return out
}

// BruteForceDiscover is the naive m² oracle for RELATED SET DISCOVERY,
// mirroring Discover's pairing rules (self-join deduplication under
// SET-SIMILARITY, ordered pairs under SET-CONTAINMENT).
func (e *Engine) BruteForceDiscover(refs *dataset.Collection) []Pair {
	selfJoin := refs == e.coll
	var pairs []Pair
	var vs verifyScratch
	for ri := range refs.Sets {
		r := &refs.Sets[ri]
		nR := len(r.Elements)
		if nR == 0 {
			continue
		}
		for s := range e.coll.Sets {
			if selfJoin {
				if s == ri {
					continue
				}
				if e.opts.Metric == SetSimilarity && s < ri {
					continue
				}
			}
			if !e.sizeAccept(nR, len(e.coll.Sets[s].Elements)) {
				continue
			}
			if m, ok := e.verify(r, s, &vs); ok {
				pairs = append(pairs, Pair{R: ri, S: s, Relatedness: m.Relatedness, Score: m.Score})
			}
		}
	}
	return pairs
}

// MatchScore exposes the exact maximum matching score |R ∩̃ S| between a
// query set and an arbitrary tokenized set (both over the engine's
// dictionary), applying the engine's reduction setting.
func (e *Engine) MatchScore(r, s *dataset.Set) float64 {
	var vs verifyScratch
	return e.matchScoreDense(r, s, &vs, e.opts.Reduction)
}
