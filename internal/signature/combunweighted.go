package signature

import (
	"math"
	"sort"

	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/tokens"
)

// generateCombUnweighted implements the combined unweighted scheme of §6.2,
// the FastJoin-style baseline: for the maximum matching score to reach
// θ there must be at least c = ⌈θ⌉ element pairs with positive similarity,
// so removing any c-1 token occurrences from the multiset R^T leaves a valid
// signature (§4.2, "unweighted signature scheme"). The removal greedy drops
// the occurrences with the longest inverted lists. With α > 0, each element
// is additionally cut down to its sim-thresh signature when possible (§6.2).
//
// Under edit similarity the scheme requires α > 0 and q < α/(1-α); positive
// edit similarity does not imply a shared q-gram, so without that constraint
// there is no valid unweighted signature and the result is marked invalid
// (the engine then falls back to a full scan, mirroring FastJoin's own
// limitation, paper footnote 12).
func generateCombUnweighted(r *dataset.Set, p Params, ix *index.Inverted, q int) Signature {
	n := len(r.Elements)
	theta := p.Theta(n)
	sig := Signature{Elements: make([]ElemSig, n), Valid: true}

	if p.Family.usesChunks() {
		if p.Alpha <= 0 || float64(q) >= p.Alpha/(1-p.Alpha) {
			sig.Valid = false
			return sig
		}
	}

	c := int(math.Ceil(theta - 1e-9))
	if c < 1 {
		c = 1
	}
	budget := c - 1 // occurrences we may remove

	// One removal unit per distinct (element, token); under edit similarity
	// it weighs the token's occurrence count in the element.
	type unit struct {
		elem int
		tok  tokens.ID
		occ  int
		cost int
	}
	var units []unit
	occLeft := make([]map[tokens.ID]int, n) // remaining occurrences per element
	for i := range r.Elements {
		el := &r.Elements[i]
		occ := make(map[tokens.ID]int)
		if !p.Family.usesChunks() {
			for _, t := range el.Tokens {
				occ[t] = 1
			}
		} else {
			for _, t := range el.Chunks {
				occ[t]++
			}
		}
		occLeft[i] = occ
		for t, o := range occ {
			units = append(units, unit{elem: i, tok: t, occ: o, cost: ix.ListLen(t)})
		}
	}
	sort.Slice(units, func(a, b int) bool {
		if units[a].cost != units[b].cost {
			return units[a].cost > units[b].cost // longest lists removed first
		}
		if units[a].tok != units[b].tok {
			return units[a].tok < units[b].tok
		}
		return units[a].elem < units[b].elem
	})
	for _, u := range units {
		if budget <= 0 {
			break
		}
		if u.occ > budget {
			continue // cannot afford a partial removal; try cheaper units
		}
		budget -= u.occ
		delete(occLeft[u.elem], u.tok)
	}

	// Assemble per-element signatures with the α cut.
	for i := range r.Elements {
		el := &r.Elements[i]
		keep := make([]tokens.ID, 0, len(occLeft[i]))
		occs := 0
		for t, o := range occLeft[i] {
			keep = append(keep, t)
			occs += o
		}
		keep = tokens.SortUnique(keep)
		// contribAfter's k counts the element's signature occurrences:
		// the kept distinct tokens under word mode, the kept chunk
		// occurrences under edit mode.
		var bound float64
		if !p.Family.usesChunks() {
			bound = contribAfter(p.Family, int(el.Length), len(keep))
		} else {
			bound = contribAfter(p.Family, int(el.Length), occs)
		}
		available := len(el.Tokens)
		if p.Family.usesChunks() {
			available = len(el.Chunks)
		}
		if satSize, ok := simThreshSize(p.Family, p.Alpha, int(el.Length), available); ok {
			if cut, covered := cheapestCoveringAlloc(keep, el, p.Family, satSize, ix); covered {
				keep = cut
				bound = 0
			}
		}
		sig.Elements[i] = ElemSig{Tokens: keep, Bound: bound}
		sig.SumBound += bound
	}
	return sig
}

// cheapestCoveringAlloc is the baseline's allocation-per-call form of the
// covering selection: it delegates to Generator.cheapestCovering on a
// throwaway generator (one covering rule for every scheme) and copies the
// result out of the generator's scratch. CombUnweighted exists as the
// paper's comparison baseline, so it does not thread worker scratch
// through.
func cheapestCoveringAlloc(candidates []tokens.ID, el *dataset.Element, f Family, need int, ix *index.Inverted) ([]tokens.ID, bool) {
	var g Generator
	var s elemState
	cut, ok := g.cheapestCovering(candidates, el, f, need, ix, &s)
	if !ok {
		return nil, false
	}
	return append([]tokens.ID(nil), cut...), true
}
