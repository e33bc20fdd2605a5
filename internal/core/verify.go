package core

import (
	"silkmoth/internal/dataset"
	"silkmoth/internal/filter"
	"silkmoth/internal/index"
	"silkmoth/internal/matching"
	"silkmoth/internal/sim"
	"silkmoth/internal/tokens"
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
// interned element-key slices the §5.3 reduction compares, the two weight
// sources, and the entries and key staging of a reference no element table
// holds (lookup). One lives in every worker; verification performs no
// per-pair heap allocations.
type verifyScratch struct {
	mat        matching.Scratch
	keyR, keyS []int32
	ps         pairSim
	os         overlapSim
	ents       []dataset.DirEntry
	key        []byte
}

// lookup returns r's element-table entries looked up in c
// (dataset.Collection.LookupEntries): the reference of a caller that passed
// a bare set, not the collection holding it. They stay valid until the next
// lookup on vs.
func (vs *verifyScratch) lookup(c *dataset.Collection, r *dataset.Set) []dataset.DirEntry {
	vs.ents, vs.key = c.LookupEntries(vs.ents[:0], r, vs.key)
	return vs.ents
}

// verify computes the exact maximum matching score between r, whose
// element-table entries are rdir, and collection set s (with the §5.3
// reduction when enabled) and reports whether the pair is related under the
// engine's metric.
func (e *Engine) verify(r *dataset.Set, rdir []dataset.DirEntry, s int, vs *verifyScratch) (Match, bool) {
	return e.verifyWith(r, rdir, s, vs, &e.opts)
}

// verifyWith is verify under explicit effective options — the engine's
// configuration with any per-query overrides (δ, reduction) applied. The
// search pipeline always routes through it so query overrides reach exact
// verification. A worker's scratch, set up by newWorker for a token-based
// similarity, reads the weights off the inverted index (overlapSim); a zero
// verifyScratch — the brute-force oracle's — calls the kernel on every cell.
//
//silkmoth:hotpath
func (e *Engine) verifyWith(r *dataset.Set, rdir []dataset.DirEntry, s int, vs *verifyScratch, o *Options) (Match, bool) {
	sSet, sdir := &e.coll.Sets[s], e.coll.Dir.Set(int32(s))
	var score float64
	if vs.os.fromOverlap != nil {
		vs.os.r, vs.os.set = r, int32(s)
		score = matchScore(rdir, sdir, vs, &vs.os, o.Reduction)
	} else {
		score = pairScore(r, sSet, rdir, sdir, e.phi, o.Reduction, vs)
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

// pairScore computes |R ∩̃ S| between two tokenized sets over one
// dictionary, neither of which need be indexed, with one call of φ_α phi
// per cell: the verification of the brute-force oracle and of the edit
// similarities, MatchScore and Compare. rdir and sdir are the sets'
// element-table entries.
//
//silkmoth:hotpath
func pairScore(r, s *dataset.Set, rdir, sdir []dataset.DirEntry, phi filter.SimFunc, reduction bool, vs *verifyScratch) float64 {
	vs.ps.phi = phi
	vs.ps.r, vs.ps.s = r, s
	return matchScore(rdir, sdir, vs, &vs.ps, reduction)
}

// matchScore computes |R ∩̃ S| over the weights wts supplies, for sets
// whose element-table entries are rdir and sdir. With the reduction
// enabled it compares the elements' content keys (dataset.DirEntry.Key) —
// integers, never materialized strings.
//
//silkmoth:hotpath
func matchScore(rdir, sdir []dataset.DirEntry, vs *verifyScratch, wts matching.Weights, reduction bool) float64 {
	if reduction {
		vs.keyR = appendElementKeys(vs.keyR[:0], rdir)
		vs.keyS = appendElementKeys(vs.keyS[:0], sdir)
		return vs.mat.ScoreReduced(vs.keyR, vs.keyS, wts)
	}
	return vs.mat.Score(len(rdir), len(sdir), wts)
}

// appendElementKeys copies the entries' content keys into dst
// (dataset.NoKey becomes the reduction's negative "never reduce" marker).
//
//silkmoth:hotpath
func appendElementKeys(dst []int32, ents []dataset.DirEntry) []int32 {
	for _, ent := range ents {
		dst = append(dst, int32(ent.Key))
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
	rdir := vs.lookup(e.coll, r)
	for s := range e.coll.Sets {
		if !e.sizeAccept(nR, len(e.coll.Sets[s].Elements)) {
			continue
		}
		if m, ok := e.verify(r, rdir, s, &vs); ok {
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
			if m, ok := e.verify(r, refs.Dir.Set(int32(ri)), s, &vs); ok {
				pairs = append(pairs, Pair{R: ri, S: s, Relatedness: m.Relatedness, Score: m.Score})
			}
		}
	}
	return pairs
}

// MatchScore exposes the exact maximum matching score |R ∩̃ S| between a
// query set and an arbitrary tokenized set (both over the engine's
// dictionary), applying the engine's reduction setting. Their keys are
// looked up in the engine's key table (dataset.Collection.LookupEntries).
func (e *Engine) MatchScore(r, s *dataset.Set) float64 {
	var vs verifyScratch
	rdir, key := e.coll.LookupEntries(nil, r, nil)
	sdir, _ := e.coll.LookupEntries(nil, s, key)
	return pairScore(r, s, rdir, sdir, e.phi, e.opts.Reduction, &vs)
}

// Compare returns the relatedness of two raw sets under opts, with no
// engine: both are tokenized into one fresh dictionary, so identical
// elements share a key for the §5.3 reduction, and the pair is scored as
// MatchScore scores it. Delta is validated but not applied. The value is 0
// for an empty r and, under SET-CONTAINMENT, for |r| > |s| (Definition 2).
func Compare(r, s dataset.RawSet, opts Options) (float64, error) {
	o, err := opts.normalize()
	if err != nil {
		return 0, err
	}
	nR, nS := len(r.Elements), len(s.Elements)
	if nR == 0 || (o.Metric == SetContainment && nR > nS) {
		return 0, nil
	}
	c := dataset.Build(tokens.NewDictionary(), []dataset.RawSet{r, s}, o.Sim.TokenMode(), o.Q)
	var vs verifyScratch
	score := pairScore(&c.Sets[0], &c.Sets[1], c.Dir.Set(0), c.Dir.Set(1), phiFunc(o), o.Reduction, &vs)
	return relatedness(o.Metric, score, nR, nS), nil
}
