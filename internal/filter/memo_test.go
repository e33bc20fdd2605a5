package filter

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"unsafe"

	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/raceflag"
	"silkmoth/internal/signature"
	"silkmoth/internal/sim"
	"silkmoth/internal/tokens"
)

// memoRun numbers the executions of the seed-dependent tests below within
// one process, so `go test -count=2` runs them on two different corpora.
var memoRun atomic.Int64

// memoFixture is one corpus indexed twice over one dictionary: coll/ix as
// built, and bare/bareIx with every element-table key overwritten by NoKey, which
// is the un-memoized path — every φ_α request there reaches the kernel.
type memoFixture struct {
	coll, bare *dataset.Collection
	ix, bareIx *index.Inverted
	phi        SimFunc
	params     signature.Params
}

func newMemoFixture(raws []dataset.RawSet, qgram bool, delta, alpha float64) *memoFixture {
	dict := tokens.NewDictionary()
	// The largest sound gram length, as core.DefaultQ: q < α/(1-α).
	q := 1
	if alpha > 0.5 {
		q = int(alpha/(1-alpha) - 1e-9)
	}
	build := func() *dataset.Collection {
		if qgram {
			return dataset.BuildQGram(dict, raws, q)
		}
		return dataset.BuildWord(dict, raws)
	}
	f := &memoFixture{coll: build(), bare: build()}
	for si := range f.bare.Sets {
		ents := f.bare.Dir.Set(int32(si))
		for ei := range ents {
			ents[ei].Key = dataset.NoKey
		}
	}
	f.ix, f.bareIx = index.Build(f.coll), index.Build(f.bare)
	f.params = signature.Params{Delta: delta, Alpha: alpha, Family: signature.FamilyJaccard}
	f.phi = func(r, s *dataset.Element) float64 {
		return sim.Alpha(sim.JaccardSorted(r.Tokens, s.Tokens), alpha)
	}
	if qgram {
		f.params.Family = signature.FamilyEdit
		f.phi = func(r, s *dataset.Element) float64 {
			return sim.EdsAlpha(r.Raw, s.Raw, alpha)
		}
	}
	return f
}

// stagedPass is what the two filter stages decided for one reference, in
// the shape cmd/silkbench's traced replay drives them: one Collect, then
// NNFilter over its survivors in order.
type stagedPass struct {
	raw   int
	cands []Candidate // deep copies, pass stamp cleared
	kept  []bool      // NNFilter's verdict per candidate
	// nn0 is the searcher's nearest-neighbor value of reference element 0
	// in each candidate set, asked for right after NNFilter and so inside
	// the candidate's pass: whatever the filter's early exits skipped, a
	// stale memo entry for element 0 shows here.
	nn0 []float64
}

// fullSignature probes with every token of every element at a bound no
// pair is excused from: Collect then asks for φ_α on every posting the
// reference can reach. It need not be a sound signature — the tests compare
// two executions of the same stages, not a result with the truth.
func fullSignature(r *dataset.Set) *signature.Signature {
	sig := &signature.Signature{Elements: make([]signature.ElemSig, len(r.Elements)), Valid: true}
	for i := range r.Elements {
		sig.Elements[i] = signature.ElemSig{Tokens: r.Elements[i].Tokens, Bound: 0.95}
		sig.SumBound += 0.95
	}
	return sig
}

// runStaged runs one staged pass under sig, or under the Dichotomy
// signature of r when sig is nil; false means r has no valid signature.
func runStaged(cl *Collector, ns *NNSearcher, ix *index.Inverted, f *memoFixture, r *dataset.Set, sig *signature.Signature) (stagedPass, bool) {
	if sig == nil {
		var sel signature.Selector
		if sig, _ = sel.Generate(signature.Dichotomy, r, f.params, ix); !sig.Valid {
			return stagedPass{}, false
		}
	}
	prune := f.params.Delta*float64(len(r.Elements)) - pruneSlack
	cands, raw := cl.Collect(r, sig, f.phi, Options{CheckFilter: true, PruneThreshold: prune})
	floors := NoShareFloors(r, sig, ix.Collection().Mode, f.params.Alpha)
	p := stagedPass{raw: raw}
	for _, c := range cands {
		p.kept = append(p.kept, NNFilter(r, sig, c, ns, floors, prune))
		p.nn0 = append(p.nn0, ns.search(&r.Elements[0], 0, c.Set))
		p.cands = append(p.cands, Candidate{
			Set: c.Set, NumPassed: c.NumPassed,
			BestSim: append([]float64(nil), c.BestSim...),
			Passed:  append([]bool(nil), c.Passed...),
		})
	}
	return p, true
}

func sameStagedPass(t *testing.T, label string, got, want stagedPass) {
	t.Helper()
	if got.raw != want.raw || len(got.cands) != len(want.cands) {
		t.Fatalf("%s: %d candidates of %d raw, want %d of %d", label, len(got.cands), got.raw, len(want.cands), want.raw)
	}
	for i := range got.cands {
		g, w := &got.cands[i], &want.cands[i]
		if g.Set != w.Set || g.NumPassed != w.NumPassed || got.kept[i] != want.kept[i] ||
			math.Float64bits(got.nn0[i]) != math.Float64bits(want.nn0[i]) {
			t.Fatalf("%s: candidate %d: set %d passed %d kept %v nn0 %v, want set %d passed %d kept %v nn0 %v",
				label, i, g.Set, g.NumPassed, got.kept[i], got.nn0[i], w.Set, w.NumPassed, want.kept[i], want.nn0[i])
		}
		for x := range g.BestSim {
			if math.Float64bits(g.BestSim[x]) != math.Float64bits(w.BestSim[x]) || g.Passed[x] != w.Passed[x] {
				t.Fatalf("%s: candidate %d (set %d) element %d: (%v,%v), want (%v,%v)",
					label, i, g.Set, x, g.BestSim[x], g.Passed[x], w.BestSim[x], w.Passed[x])
			}
		}
	}
}

// TestMemoTable pins the table itself: a hit needs the same reference
// element, the same key and the same pass; a colliding store evicts; reset
// forgets everything, also across the generation counter's wrap.
func TestMemoTable(t *testing.T) {
	defer SetMemoSlotsForTest(2)()
	var m simMemo
	m.reset()
	if len(m.slots) != 2 {
		t.Fatalf("table has %d slots, want 2", len(m.slots))
	}
	put := func(ref int, key tokens.ID, v float64) {
		e, tag, _ := m.lookup(ref, key)
		m.store(e, tag, v)
	}
	get := func(ref int, key tokens.ID) (float64, bool) {
		e, _, ok := m.lookup(ref, key)
		return e.val, ok
	}
	put(3, 7, 0.25)
	if v, ok := get(3, 7); !ok || v != 0.25 {
		t.Fatalf("lookup after store = (%v,%v), want (0.25,true)", v, ok)
	}
	for _, miss := range []struct {
		ref int
		key tokens.ID
	}{{4, 7}, {3, 8}} {
		if _, ok := get(miss.ref, miss.key); ok {
			t.Errorf("lookup(%d,%d) hit the entry of (3,7)", miss.ref, miss.key)
		}
	}
	// A reference element number a tag has no room for shares its low bits
	// with 3: it must reach the kernel, and leave nothing behind.
	calls := 0
	phi := func(r, s *dataset.Element) float64 { calls++; return 0.5 }
	one := &dataset.Collection{Sets: []dataset.Set{{Elements: []dataset.Element{{}}}}}
	for range 2 {
		if v := m.eval(phi, 3+memoMaxRef, nil, 7, one, dataset.Posting{}); v != 0.5 {
			t.Errorf("eval past memoMaxRef = %v, want the kernel's 0.5", v)
		}
	}
	if v, ok := get(3, 7); calls != 2 || !ok || v != 0.25 {
		t.Errorf("past memoMaxRef: %d kernel calls, then lookup(3,7) = (%v,%v); want 2 and (0.25,true)", calls, v, ok)
	}
	// Nine pairs into two slots: at most two survive, and each survivor
	// still answers with its own value.
	for k := tokens.ID(0); k < 9; k++ {
		put(1, k, float64(k))
	}
	live := 0
	for k := tokens.ID(0); k < 9; k++ {
		if v, ok := get(1, k); ok {
			live++
			if v != float64(k) {
				t.Errorf("lookup(1,%d) = %v after evictions", k, v)
			}
		}
	}
	if live < 1 || live > 2 {
		t.Errorf("%d of 9 pairs live in a 2-slot table", live)
	}
	put(3, 7, 0.5)
	m.reset()
	if _, ok := get(3, 7); ok {
		t.Error("entry survived reset")
	}
	put(3, 7, 0.5)
	m.gen = math.MaxUint16
	put(5, 9, 0.75)
	m.reset()
	if m.gen != 1 {
		t.Errorf("generation after wrap = %d, want 1", m.gen)
	}
	for _, e := range m.slots {
		if e != (memoEntry{}) {
			t.Errorf("slot %+v survived the wrap", e)
		}
	}
}

// TestMemoEvictionGridFilterStages is the filter-level half of the eviction
// grid: on a corpus of heavily repeated elements, the staged pass with a
// 2-slot memo (nearly every store evicts) and with the default table must
// equal, bit for bit, the pass over the NoKey twin, where no request is
// memoized at all — and the counts must add up: what the memo did not
// answer, the kernel did. Under Jaccard a third execution, whose searcher
// scores from overlap counts (CountOverlaps), is held to the same pass: its
// nearest-neighbor values are the kernel's bit for bit, it calls the kernel
// for none of them, and it looks at exactly as many element pairs.
func TestMemoEvictionGridFilterStages(t *testing.T) {
	seed := 7100 + memoRun.Add(1)
	for _, qgram := range []bool{false, true} {
		for _, alpha := range []float64{0, 0.5, 0.8} {
			raws := datagen.RepeatedElements(seed, 60, 14)
			f := newMemoFixture(raws, qgram, 0.6, alpha)
			for _, slots := range []int{2, defaultMemoSlots} {
				restore := SetMemoSlotsForTest(slots)
				cl, ns := NewCollector(f.ix), NewNNSearcher(f.ix, f.phi)
				bareCl, bareNs := NewCollector(f.bareIx), NewNNSearcher(f.bareIx, f.phi)
				cntCl, cntNs := NewCollector(f.ix), NewNNSearcher(f.ix, f.phi)
				if !qgram {
					cntNs.CountOverlaps(sim.JaccardFromOverlap, alpha)
				}
				var memo, bare SimCounts
				for ri := range f.coll.Sets {
					label := fmt.Sprintf("seed=%d qgram=%v α=%v slots=%d ref=%d", seed, qgram, alpha, slots, ri)
					got, ok := runStaged(cl, ns, f.ix, f, &f.coll.Sets[ri], nil)
					want, okBare := runStaged(bareCl, bareNs, f.bareIx, f, &f.bare.Sets[ri], nil)
					if ok != okBare {
						t.Fatalf("%s: signature valid %v on the keyed corpus, %v on its twin", label, ok, okBare)
					}
					if ok {
						sameStagedPass(t, label, got, want)
					}
					if ok && !qgram {
						counted, _ := runStaged(cntCl, cntNs, f.ix, f, &f.coll.Sets[ri], nil)
						sameStagedPass(t, label+" from overlap counts", counted, want)
					}
				}
				if n, kernel := cntNs.TakeSimCounts(), bareNs.memo.n; !qgram &&
					(n.Evals != 0 || n.MemoHits != 0 || n.Counted != kernel.Evals || n.Counted == 0 || cntNs.memo.slots != nil) {
					t.Errorf("seed=%d α=%v slots=%d: the counting searcher reports %+v (memo table allocated: %v), the kernel one %+v; want every pair counted, none evaluated, no table",
						seed, alpha, slots, n, cntNs.memo.slots != nil, kernel)
				}
				for _, n := range []SimCounts{cl.TakeSimCounts(), ns.TakeSimCounts()} {
					memo.Evals += n.Evals
					memo.MemoHits += n.MemoHits
				}
				for _, n := range []SimCounts{bareCl.TakeSimCounts(), bareNs.TakeSimCounts()} {
					bare.Evals += n.Evals
					bare.MemoHits += n.MemoHits
				}
				restore()
				if bare.MemoHits != 0 || memo.Evals+memo.MemoHits != bare.Evals {
					t.Errorf("seed=%d qgram=%v α=%v slots=%d: memoized %+v, un-memoized %+v: requests do not add up",
						seed, qgram, alpha, slots, memo, bare)
				}
				if slots == defaultMemoSlots && memo.MemoHits == 0 {
					t.Errorf("seed=%d qgram=%v α=%v: no memo hit on a corpus of %d distinct elements", seed, qgram, alpha, 14)
				}
			}
		}
	}
}

// TestMemoPassIsolation drives one Collector and one NNSearcher the way
// cmd/silkbench's traced replay does — Collect, then NNFilter over the
// survivors — alternating between two references that live in the same
// QueryScratch storage and reach the same candidate elements, but differ in
// the content of element 0. A memo entry that outlived its pass would hand
// reference B the value computed for reference A's element 0. Every pass
// must equal a fresh Collector and NNSearcher on the same reference.
func TestMemoPassIsolation(t *testing.T) {
	seed := 7200 + memoRun.Add(1)
	raws := datagen.RepeatedElements(seed, 50, 10)
	for _, qgram := range []bool{false, true} {
		// Two references equal from element 1 on, whose element 0 is one
		// corpus element extended two ways: both stay above α against it,
		// at different similarities.
		f, tails := newMemoFixture(raws, false, 0.5, 0.3), [2]string{" wa0", " wb1 wc2"}
		if qgram {
			f, tails = newMemoFixture(raws, true, 0.5, 0.8), [2]string{"x", "yz"}
		}
		base := raws[0].Elements
		refs := [2][]string{
			append([]string{raws[1].Elements[0] + tails[0]}, base...),
			append([]string{raws[1].Elements[0] + tails[1]}, base...),
		}
		var qs dataset.QueryScratch
		build := func(which int) *dataset.Set {
			return &qs.Build(f.coll.Dict, []dataset.RawSet{{Name: "ref", Elements: refs[which]}}, f.coll.Mode, f.coll.Q).Sets[0]
		}
		cl, ns := NewCollector(f.ix), NewNNSearcher(f.ix, f.phi)
		for round := 0; round < 3; round++ {
			for which := range refs {
				r := build(which)
				// The reference's own signature, as the replay generates it,
				// and the probe-everything signature, under which both stages
				// are certain to ask for element 0 against shared content.
				for _, sig := range []*signature.Signature{nil, fullSignature(r)} {
					label := fmt.Sprintf("seed=%d qgram=%v round=%d ref=%d full=%v", seed, qgram, round, which, sig != nil)
					got, ok := runStaged(cl, ns, f.ix, f, r, sig)
					want, okFresh := runStaged(NewCollector(f.ix), NewNNSearcher(f.ix, f.phi), f.ix, f, r, sig)
					if !ok || !okFresh {
						t.Fatalf("%s: no valid signature", label)
					}
					if len(want.cands) == 0 {
						t.Fatalf("%s: no candidates; the corpus does not exercise the memo", label)
					}
					sameStagedPass(t, label, got, want)
				}
			}
		}

		// One searcher refining candidates of two collectors, each on its
		// first pass: numbering passes per collector would make the two
		// stamps equal.
		shared := NewNNSearcher(f.ix, f.phi)
		for which := range refs {
			r := build(which)
			got, _ := runStaged(NewCollector(f.ix), shared, f.ix, f, r, fullSignature(r))
			want, _ := runStaged(NewCollector(f.ix), NewNNSearcher(f.ix, f.phi), f.ix, f, r, fullSignature(r))
			sameStagedPass(t, fmt.Sprintf("seed=%d qgram=%v shared searcher ref=%d", seed, qgram, which), got, want)
		}
		// Candidates built by hand carry no stamp, so each is a pass of its
		// own — also when the previous one was unstamped too.
		for set := range f.coll.Sets {
			for which := range refs {
				r := build(which)
				n := len(r.Elements)
				hand := &Candidate{Set: int32(set), BestSim: make([]float64, n), Passed: make([]bool, n)}
				sig, floors := fullSignature(r), make([]float64, n)
				fresh := NewNNSearcher(f.ix, f.phi)
				g, w := NNFilter(r, sig, hand, shared, floors, 0.4*float64(n)), NNFilter(r, sig, hand, fresh, floors, 0.4*float64(n))
				g0, w0 := shared.search(&r.Elements[0], 0, hand.Set), fresh.Search(&r.Elements[0], hand.Set)
				if g != w || math.Float64bits(g0) != math.Float64bits(w0) {
					t.Fatalf("seed=%d qgram=%v ref=%d set=%d: hand-built candidate kept %v nn0 %v on a used searcher, %v and %v on a fresh one",
						seed, qgram, which, set, g, g0, w, w0)
				}
			}
		}
	}
}

// TestMemoPassAllocGate pins the hot-path contract: once the tables exist, a
// whole filter pass — Collect, floors, NNFilter over every survivor —
// allocates nothing, whether collector and searcher ask the kernel through
// their memos or count overlaps (the counting collector's cursor heads are
// its own scratch, grown by the first pass).
func TestMemoPassAllocGate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	f := newMemoFixture(datagen.RepeatedElements(7300, 80, 12), false, 0.5, 0.3)
	r := &f.coll.Sets[3]
	var sel signature.Selector
	sig, _ := sel.Generate(signature.Dichotomy, r, f.params, f.ix)
	if !sig.Valid {
		t.Fatal("no valid signature")
	}
	prune := f.params.Delta*float64(len(r.Elements)) - pruneSlack
	counting := NewNNSearcher(f.ix, f.phi)
	counting.CountOverlaps(sim.JaccardFromOverlap, f.params.Alpha)
	for _, ns := range []*NNSearcher{NewNNSearcher(f.ix, f.phi), counting} {
		cl := NewCollector(f.ix)
		if ns == counting {
			cl.CountOverlaps(sim.JaccardFromOverlap, f.params.Alpha)
		}
		var floors []float64
		refined := 0
		pass := func() {
			cands, _ := cl.Collect(r, sig, f.phi, Options{CheckFilter: true, PruneThreshold: prune})
			floors = AppendNoShareFloors(floors, r, sig, f.coll.Mode, f.params.Alpha)
			for _, c := range cands {
				NNFilter(r, sig, c, ns, floors, prune)
				refined++
			}
		}
		pass()
		pass()
		if refined == 0 {
			t.Fatal("no candidate reached the nearest-neighbor filter")
		}
		if got := testing.AllocsPerRun(100, pass); got > 0 {
			t.Errorf("a warmed Collect + NNFilter pass allocates %.1f objects (counting=%v), want 0", got, ns == counting)
		}
		if n := cl.TakeSimCounts(); n.MemoHits == 0 || (ns == counting) != (cap(cl.headCur) > 0) {
			t.Errorf("collect counted %+v with room for %d cursor heads (counting=%v): the gate ran without a memo hit, or not on the loop it names",
				n, cap(cl.headCur), ns == counting)
		}
		if n := ns.TakeSimCounts(); (ns == counting) != (n.Counted > 0) || (ns == counting) == (n.Evals+n.MemoHits > 0) {
			t.Errorf("the searcher counted %+v (counting=%v): the gate did not run the path it names", n, ns == counting)
		}
	}
}

// TestMemoFootprintGate pins what the memo may cost in memory: nothing
// until a pass runs, then two fixed tables of at most 512 KiB together that
// no number of passes grows.
func TestMemoFootprintGate(t *testing.T) {
	f := newMemoFixture(datagen.RepeatedElements(7400, 40, 10), false, 0.5, 0.3)
	cl, ns := NewCollector(f.ix), NewNNSearcher(f.ix, f.phi)
	if cl.memo.slots != nil || ns.memo.slots != nil {
		t.Fatal("a constructor allocated the memo table")
	}
	for ri := range f.coll.Sets {
		runStaged(cl, ns, f.ix, f, &f.coll.Sets[ri], nil)
	}
	bytes := (len(cl.memo.slots) + len(ns.memo.slots)) * int(unsafe.Sizeof(memoEntry{}))
	if len(cl.memo.slots) != defaultMemoSlots || len(ns.memo.slots) != defaultMemoSlots {
		t.Errorf("tables hold %d and %d slots after %d passes, want %d each",
			len(cl.memo.slots), len(ns.memo.slots), len(f.coll.Sets), defaultMemoSlots)
	}
	if bytes == 0 || bytes > 512<<10 {
		t.Errorf("a worker's memo tables take %d bytes, want 1..%d", bytes, 512<<10)
	}
}
