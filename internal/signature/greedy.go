package signature

import (
	"container/heap"
	"math"
	"slices"

	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/tokens"
)

// elemState tracks one reference element during greedy selection. Its slice
// fields are persistent scratch: a Generator reuses them across passes, so
// steady-state generation performs no per-query heap allocations.
type elemState struct {
	length    int  // |r_i|: token count (word) or rune length (edit)
	totalOcc  int  // available signature token occurrences
	picked    int  // occurrences picked so far
	satSize   int  // sim-thresh occurrence count, when satOK
	satOK     bool // whether saturation is attainable
	saturated bool
	contrib   float64 // current Bound_i contribution
	// pickedTokens holds the element's distinct picked signature tokens
	// and doubles as the ElemSig.Tokens backing after assembly.
	pickedTokens []tokens.ID
	// cutTokens backs the element's skyline-cut signature when the cut
	// applies (a subset of pickedTokens, chosen cheapest-first).
	cutTokens []tokens.ID
}

// tokEntry is one distinct candidate signature token. Entries live in the
// Generator's arena and keep their slice capacities across passes.
type tokEntry struct {
	id    tokens.ID
	cost  float64 // |I[t]|
	elems []int32 // reference elements containing the token
	occs  []int32 // occurrences per element (chunks can repeat)
	value float64 // value at the time of the last heap push
}

// contribAfter returns Bound_i when k signature token occurrences of an
// element of size `length` are picked: the family's sound upper bound on
// φ(r, s) for any s containing none of them.
func contribAfter(f Family, length, k int) float64 {
	if length == 0 {
		return 0
	}
	l, kk := float64(length), float64(k)
	switch f {
	case FamilyJaccard:
		// (|r|-k)/|r| (§4.2); k never exceeds |r| because occurrences
		// are distinct word tokens.
		return (l - kk) / l
	case FamilyEdit:
		// |r|/(|r|+k) (§7.1, Definition 11).
		return l / (l + kk)
	case FamilyDice:
		// 2(|r|-k)/(2|r|-k): the worst case |s| = |r∩s| = |r|-k.
		return 2 * (l - kk) / (2*l - kk)
	case FamilyCosine:
		// √((|r|-k)/|r|): from |∩|/√(|r||s|) ≤ √(|∩|/|r|).
		return math.Sqrt((l - kk) / l)
	default:
		panic("signature: unknown family")
	}
}

// tokenValue recomputes the current marginal value of t: the total decrease
// of Σ Bound_i from picking it now, skipping saturated elements.
func tokenValue(f Family, es []elemState, t *tokEntry) float64 {
	v := 0.0
	for x, e := range t.elems {
		s := &es[e]
		if s.saturated || s.length == 0 {
			continue
		}
		v += s.contrib - contribAfter(f, s.length, s.picked+int(t.occs[x]))
	}
	return v
}

// ratioHeap is a min-heap over cost/value. Entries may be stale; pops
// revalidate against the current value (lazy deletion). Ratios are compared
// as cost₁·value₂ < cost₂·value₁ to avoid dividing by tiny values.
type ratioHeap []*tokEntry

func (h ratioHeap) Len() int { return len(h) }
func (h ratioHeap) Less(i, j int) bool {
	a, b := h[i].cost*h[j].value, h[j].cost*h[i].value
	if a != b {
		return a < b
	}
	// Deterministic tie-breaks: cheaper token first, then smaller id.
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].id < h[j].id
}
func (h ratioHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *ratioHeap) Push(x interface{}) { *h = append(*h, x.(*tokEntry)) }
func (h *ratioHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Generator owns the reusable scratch of signature generation: element
// states, the candidate-token arena with its epoch-stamped dedup tables
// (dense token ids replace the historical per-pass maps), the selection
// heap, and the output Signature's buffers. Steady-state generation of the
// weighted-family schemes performs no per-query heap allocations.
//
// The Signature returned by Generate points into the Generator's buffers
// and is valid only until the next Generate call; one search pass consumes
// it before the next begins. A Generator is not safe for concurrent use;
// create one per worker. The zero value is ready to use.
type Generator struct {
	sig Signature
	es  []elemState
	// arena holds the pass's distinct candidate tokens; slot/stamp give
	// O(1) token → arena-index lookup without a map (stamp[t] == epoch
	// marks slot[t] valid).
	arena []tokEntry
	slot  []int32
	stamp []uint32
	epoch uint32
	// occ* count chunk occurrences within one element (and back the
	// skyline cut's occurrence lookup), epoch-stamped per element.
	occStamp []uint32
	occCnt   []int32
	occEpoch uint32
	occOrder []tokens.ID
	h        ratioHeap
	// tcs is the skyline cut's cost-sorting scratch.
	tcs []tokCost
}

type tokCost struct {
	id   tokens.ID
	cost int
	occ  int
}

// Generate builds a signature of the given kind for reference set r against
// the inverted index ix (whose lengths are the token costs), reusing the
// generator's scratch. Params.Family selects between the Jaccard-style (§4),
// edit-similarity (§7), and the Dice/Cosine generalized formulations; it
// must match the collection's tokenization. Kind Auto is resolved by
// Selector, not here.
func (g *Generator) Generate(kind Kind, r *dataset.Set, p Params, ix *index.Inverted) *Signature {
	if p.Family.usesChunks() != (ix.Collection().Mode == dataset.ModeQGram) {
		panic("signature: Params.Family does not match collection tokenization")
	}
	q := ix.Collection().Q
	switch kind {
	case Weighted:
		g.generateGreedy(r, p, ix, false)
	case Dichotomy:
		g.generateGreedy(r, p, ix, true)
	case Skyline:
		g.generateGreedy(r, p, ix, false)
		g.applySkylineCut(r, p, ix)
	case CombUnweighted:
		g.sig = generateCombUnweighted(r, p, ix, q)
	default:
		panic("signature: Generate requires a concrete scheme kind")
	}
	return &g.sig
}

// bumpEpoch advances the token-dedup epoch, resetting stamps on wrap.
func (g *Generator) bumpEpoch() {
	g.epoch++
	if g.epoch == 0 {
		for i := range g.stamp {
			g.stamp[i] = 0
		}
		g.epoch = 1
	}
}

// bumpOccEpoch advances the per-element occurrence epoch.
func (g *Generator) bumpOccEpoch() {
	g.occEpoch++
	if g.occEpoch == 0 {
		for i := range g.occStamp {
			g.occStamp[i] = 0
		}
		g.occEpoch = 1
	}
}

// ensureTok sizes the token-keyed tables to cover id t (query sets can
// intern tokens past the indexed dictionary's size).
func (g *Generator) ensureTok(t tokens.ID) {
	if int(t) < len(g.stamp) {
		return
	}
	n := int(t) + 1
	if n < 2*len(g.stamp) {
		n = 2 * len(g.stamp)
	}
	stamp := make([]uint32, n)
	copy(stamp, g.stamp)
	g.stamp = stamp
	slot := make([]int32, n)
	copy(slot, g.slot)
	g.slot = slot
}

// ensureOcc sizes the occurrence tables to cover id t.
func (g *Generator) ensureOcc(t tokens.ID) {
	if int(t) < len(g.occStamp) {
		return
	}
	n := int(t) + 1
	if n < 2*len(g.occStamp) {
		n = 2 * len(g.occStamp)
	}
	stamp := make([]uint32, n)
	copy(stamp, g.occStamp)
	g.occStamp = stamp
	cnt := make([]int32, n)
	copy(cnt, g.occCnt)
	g.occCnt = cnt
}

// addOcc records one (element, token, occurrences) triple, creating the
// token's arena entry on first encounter this pass.
func (g *Generator) addOcc(i int, t tokens.ID, occ int, ix *index.Inverted) {
	g.ensureTok(t)
	var idx int32
	if g.stamp[t] == g.epoch {
		idx = g.slot[t]
	} else {
		g.stamp[t] = g.epoch
		if len(g.arena) < cap(g.arena) {
			g.arena = g.arena[:len(g.arena)+1]
		} else {
			g.arena = append(g.arena, tokEntry{})
		}
		idx = int32(len(g.arena) - 1)
		e := &g.arena[idx]
		e.id = t
		e.cost = float64(ix.ListLen(t))
		e.elems = e.elems[:0]
		e.occs = e.occs[:0]
		e.value = 0
		g.slot[t] = idx
	}
	e := &g.arena[idx]
	e.elems = append(e.elems, int32(i))
	e.occs = append(e.occs, int32(occ))
}

// buildStates prepares the element states and candidate tokens for r,
// returning the initial Σ Bound_i.
func (g *Generator) buildStates(r *dataset.Set, p Params, ix *index.Inverted) float64 {
	n := len(r.Elements)
	if cap(g.es) < n {
		g.es = make([]elemState, n)
	}
	g.es = g.es[:n]
	g.arena = g.arena[:0]
	g.bumpEpoch()
	remaining := 0.0
	for i := range r.Elements {
		el := &r.Elements[i]
		s := &g.es[i]
		s.length = int(el.Length)
		s.picked = 0
		s.saturated = false
		s.pickedTokens = s.pickedTokens[:0]
		if !p.Family.usesChunks() {
			// Word tokens are already distinct: no occurrence counting.
			s.totalOcc = len(el.Tokens)
			for _, t := range el.Tokens {
				g.addOcc(i, t, 1, ix)
			}
		} else {
			s.totalOcc = len(el.Chunks)
			g.bumpOccEpoch()
			g.occOrder = g.occOrder[:0]
			for _, t := range el.Chunks {
				g.ensureOcc(t)
				if g.occStamp[t] != g.occEpoch {
					g.occStamp[t] = g.occEpoch
					g.occCnt[t] = 0
					g.occOrder = append(g.occOrder, t)
				}
				g.occCnt[t]++
			}
			for _, t := range g.occOrder {
				g.addOcc(i, t, int(g.occCnt[t]), ix)
			}
		}
		s.satSize, s.satOK = simThreshSize(p.Family, p.Alpha, s.length, s.totalOcc)
		s.contrib = contribAfter(p.Family, s.length, 0)
		remaining += s.contrib
	}
	return remaining
}

// generateGreedy implements the cost/value greedy of §4.3 over the weighted
// scheme, and with dichotomy=true the advanced heuristic of §6.4 in which an
// element whose picked occurrences reach the sim-thresh size saturates: its
// bound drops to 0 and it stops attracting signature tokens. The result
// lands in g.sig.
func (g *Generator) generateGreedy(r *dataset.Set, p Params, ix *index.Inverted, dichotomy bool) {
	n := len(r.Elements)
	// Stop only once the bound sum sits a full ValiditySlack below θ, so
	// float drift in `remaining` cannot admit an invalid signature.
	target := p.Theta(n) - ValiditySlack
	remaining := g.buildStates(r, p, ix)
	es := g.es

	g.h = g.h[:0]
	for idx := range g.arena {
		e := &g.arena[idx]
		e.value = tokenValue(p.Family, es, e)
		if e.value > 0 {
			g.h = append(g.h, e)
		}
	}
	heap.Init(&g.h)

	const valueEps = 1e-15
	for remaining >= target && g.h.Len() > 0 {
		e := heap.Pop(&g.h).(*tokEntry)
		cur := tokenValue(p.Family, es, e)
		if cur <= 0 {
			continue // all its elements saturated; drop
		}
		if cur < e.value-valueEps {
			e.value = cur // stale: value shrank, ratio grew; reinsert
			heap.Push(&g.h, e)
			continue
		}
		// Pick e for every unsaturated element containing it.
		for x, ei := range e.elems {
			s := &es[ei]
			if s.saturated || s.length == 0 {
				continue
			}
			after := contribAfter(p.Family, s.length, s.picked+int(e.occs[x]))
			remaining -= s.contrib - after
			s.contrib = after
			s.picked += int(e.occs[x])
			s.pickedTokens = append(s.pickedTokens, e.id)
			if dichotomy && s.satOK && s.picked >= s.satSize {
				remaining -= s.contrib
				s.contrib = 0
				s.saturated = true
			}
		}
	}

	if cap(g.sig.Elements) < n {
		g.sig.Elements = make([]ElemSig, n)
	}
	g.sig.Elements = g.sig.Elements[:n]
	g.sig.SumBound = 0
	g.sig.Valid = remaining < target
	for i := range es {
		s := &es[i]
		// Picked tokens are distinct by construction (each arena entry is
		// picked at most once and lists an element at most once); sorting
		// in place yields the canonical ElemSig form without copying.
		slices.Sort(s.pickedTokens)
		g.sig.Elements[i] = ElemSig{Tokens: s.pickedTokens, Bound: s.contrib}
		g.sig.SumBound += s.contrib
	}
}

// applySkylineCut post-processes the weighted signature in g.sig into a
// skyline signature (§6.3): any element whose signature tokens reach the
// sim-thresh size is cut down to the cheapest sim-thresh-sized subset and
// its bound drops to 0.
func (g *Generator) applySkylineCut(r *dataset.Set, p Params, ix *index.Inverted) {
	if !g.sig.Valid {
		return
	}
	sum := 0.0
	for i := range g.sig.Elements {
		el := &r.Elements[i]
		esig := &g.sig.Elements[i]
		available := len(el.Tokens)
		if p.Family.usesChunks() {
			available = len(el.Chunks)
		}
		satSize, ok := simThreshSize(p.Family, p.Alpha, int(el.Length), available)
		if ok {
			if cut, covered := g.cheapestCovering(esig.Tokens, el, p.Family, satSize, ix, &g.es[i]); covered {
				esig.Tokens = cut
				esig.Bound = 0
			}
		}
		sum += esig.Bound
	}
	g.sig.SumBound = sum
}

// cheapestCovering returns the cheapest subset of candidate tokens whose
// occurrence count within el reaches need, and whether that is possible.
// Under word mode every token counts one occurrence; under edit mode a chunk
// token counts its multiplicity in el. The result is written into the
// element's cutTokens scratch.
func (g *Generator) cheapestCovering(candidates []tokens.ID, el *dataset.Element, f Family, need int, ix *index.Inverted, s *elemState) ([]tokens.ID, bool) {
	hasOcc := f.usesChunks()
	if hasOcc {
		g.bumpOccEpoch()
		for _, c := range el.Chunks {
			g.ensureOcc(c)
			if g.occStamp[c] != g.occEpoch {
				g.occStamp[c] = g.occEpoch
				g.occCnt[c] = 0
			}
			g.occCnt[c]++
		}
	}
	g.tcs = g.tcs[:0]
	total := 0
	for _, t := range candidates {
		occ := 1
		if hasOcc {
			g.ensureOcc(t)
			if g.occStamp[t] == g.occEpoch && g.occCnt[t] > 0 {
				occ = int(g.occCnt[t])
			} // else defensive: token not a chunk of el, counts one
		}
		g.tcs = append(g.tcs, tokCost{id: t, cost: ix.ListLen(t), occ: occ})
		total += occ
	}
	if total < need {
		return nil, false
	}
	slices.SortFunc(g.tcs, func(a, b tokCost) int {
		if a.cost != b.cost {
			if a.cost < b.cost {
				return -1
			}
			return 1
		}
		if a.id < b.id {
			return -1
		}
		if a.id > b.id {
			return 1
		}
		return 0
	})
	s.cutTokens = s.cutTokens[:0]
	covered := 0
	for _, t := range g.tcs {
		if covered >= need {
			break
		}
		s.cutTokens = append(s.cutTokens, t.id)
		covered += t.occ
	}
	slices.Sort(s.cutTokens)
	return s.cutTokens, true
}
