package filter

import (
	"math/bits"
	"sync/atomic"

	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
)

// SimCounts is how the filter stages of one or more passes came by φ_α:
// Evals ran the kernel, MemoHits were answered by the per-pass memo
// instead, Counted were computed exactly from an overlap count (a searcher
// or collector after CountOverlaps), Bounded were dropped by the check
// filter because a bound from index counts and sizes (CountOverlaps) or
// from the two lengths (BoundByLength) kept them below the element's bound,
// with no memo probe and no element load. The four add up to what the
// filters looked at. The unit depends on the collector: after CountOverlaps
// it meets every ⟨reference element, candidate element⟩ pair once, so the
// sum counts distinct pairs; otherwise it counts per posting — a pair
// sharing k signature tokens k times. The searcher always counts pairs.
type SimCounts struct {
	Evals    int64
	MemoHits int64
	Counted  int64
	Bounded  int64
}

// memoEntry is one slot of a simMemo: val is φ_α(r_ref, s) for any candidate
// element s whose content key is key, computed during pass generation gen.
// The three are packed into tag — gen<<48 | ref<<32 | key — so that a probe
// is one comparison and four slots share a cache line; gen is never 0, so
// the zero entry matches nothing.
type memoEntry struct {
	tag uint64
	val float64
}

// memoMaxRef bounds the reference element numbers a tag has room for.
const memoMaxRef = 1 << 16

// defaultMemoSlots sizes every memo: 8192 slots of 16 bytes, 128 KiB. A
// worker owns two — its Collector's and its NNSearcher's — so the memo
// costs a worker 256 KiB, under the 512 KiB ceiling TestMemoFootprintGate
// pins.
const defaultMemoSlots = 1 << 13

// memoSlots, when nonzero, replaces defaultMemoSlots for memos allocated
// from then on. It exists only for SetMemoSlotsForTest.
var memoSlots atomic.Int64

// SetMemoSlotsForTest makes memos allocated from now on n slots large (a
// power of two) and returns the function that restores the default. It
// exists so that exactness tests in this and the engine packages can force
// nearly every store to evict; nothing outside tests may call it.
func SetMemoSlotsForTest(n int) (restore func()) {
	if n < 1 || n&(n-1) != 0 {
		panic("filter: memo slot count must be a power of two")
	}
	memoSlots.Store(int64(n))
	return func() { memoSlots.Store(0) }
}

// simMemo is a fixed-size, direct-mapped table of φ_α values that is valid
// for exactly one pass (one reference set against one collection state). It
// is keyed by ⟨reference element index, candidate DirEntry.Key⟩: key
// equality is content equality (dataset.DirEntry.Key) and φ_α is a pure
// function of the two contents, so a hit returns the very float64 the
// kernel returned earlier in the pass and results are bit-identical with
// and without the table. A colliding store overwrites; NoKey elements (and
// reference elements numbered memoMaxRef and up, which a tag cannot hold)
// bypass the table; reset starts the next pass in O(1) by bumping the
// generation every entry is stamped with. Key ids are recycled across
// Delete → Compact → Add, which is why no entry may survive a pass: inside
// one, the engine's lock keeps mutations out.
//
// The table is allocated by the first reset, never by a constructor, and
// never resized. A simMemo is not safe for concurrent use.
type simMemo struct {
	slots []memoEntry
	shift uint // 64 − log2(len(slots)): the hash keeps its top bits
	gen   uint16
	n     SimCounts
}

// reset invalidates every entry: the next pass starts empty.
//
//silkmoth:hotpath
func (m *simMemo) reset() {
	if m.slots == nil {
		n := int(memoSlots.Load())
		if n == 0 {
			n = defaultMemoSlots
		}
		m.slots = make([]memoEntry, n)
		m.shift = uint(64 - bits.TrailingZeros(uint(n)))
	}
	m.gen++
	if m.gen == 0 { // wrapped: stale stamps could collide, clear them
		for i := range m.slots {
			m.slots[i] = memoEntry{}
		}
		m.gen = 1
	}
}

// lookup returns the one slot ⟨ref, key⟩ maps to (Fibonacci hashing of the
// pair; a shift of 64 — the 1-slot table — yields index 0), the pair's tag
// for the current pass, and whether the slot holds it. ref is below
// memoMaxRef.
//
//silkmoth:hotpath
func (m *simMemo) lookup(ref int, key tokens.ID) (*memoEntry, uint64, bool) {
	k := uint64(ref)<<32 | uint64(uint32(key))
	e := &m.slots[(k*0x9E3779B97F4A7C15)>>m.shift]
	tag := uint64(m.gen)<<48 | k
	return e, tag, e.tag == tag
}

// store records v under tag in e, the slot and tag lookup returned for a
// pair, evicting whatever held the slot.
//
//silkmoth:hotpath
func (m *simMemo) store(e *memoEntry, tag uint64, v float64) {
	*e = memoEntry{tag: tag, val: v}
}

// eval is the filters' one way to φ_α(r, s), r being the pass's reference
// element number ref and s the element of coll that posting p names: the
// memoized value when the pass already computed it for an element with s's
// content, the kernel (and a store) otherwise. key is s's content key as
// the index's element directory holds it; s itself is only loaded when the
// kernel has to run.
//
//silkmoth:hotpath
func (m *simMemo) eval(phi SimFunc, ref int, r *dataset.Element, key tokens.ID, coll *dataset.Collection, p dataset.Posting) float64 {
	if key == dataset.NoKey || ref >= memoMaxRef {
		m.n.Evals++
		return phi(r, &coll.Sets[p.Set].Elements[p.Elem])
	}
	e, tag, ok := m.lookup(ref, key)
	if ok {
		m.n.MemoHits++
		return e.val
	}
	v := phi(r, &coll.Sets[p.Set].Elements[p.Elem])
	m.n.Evals++
	m.store(e, tag, v)
	return v
}

// take returns the counts accumulated since the last take and zeroes them.
func (m *simMemo) take() SimCounts {
	n := m.n
	m.n = SimCounts{}
	return n
}

// passSeq numbers passes process-wide. Collect stamps its candidates with a
// fresh number and NNFilter resets the searcher's memo when the stamp it
// sees changes, so pass identity survives everything that is reused across
// passes: the reference's Set storage (dataset.QueryScratch), pooled
// collectors and searchers, and a searcher refining another worker's
// candidates (parallel verification).
var passSeq atomic.Uint64
