package filter

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/raceflag"
	"silkmoth/internal/signature"
)

// TestCollectorReuseMatchesFresh runs the same collection repeatedly on one
// Collector and checks each pass against a fresh Collector: the arenas must
// carry nothing from one pass into the next (BestSim, Passed, NumPassed)
// and the reused output slice no stale survivors.
func TestCollectorReuseMatchesFresh(t *testing.T) {
	r, sig, ix, _ := paperSetup(t)
	opts := Options{CheckFilter: true, PruneThreshold: 2.1 - pruneSlack}
	reused := NewCollector(ix)
	for pass := 0; pass < 5; pass++ {
		got, gotRaw := reused.Collect(r, sig, jacPhi, opts)
		want, wantRaw := NewCollector(ix).Collect(r, sig, jacPhi, opts)
		if gotRaw != wantRaw {
			t.Fatalf("pass %d: reused collector's raw count %d != fresh %d", pass, gotRaw, wantRaw)
		}
		sameCandidates(t, fmt.Sprintf("pass %d", pass), got, want)
	}
}

// algorithm1 is the paper's Algorithm 1 — candidate selection with the
// check filter — transcribed with maps and one kernel call per posting: no
// directory, no memo, no arena. It returns what Collector.Collect must: the
// surviving candidates in first-touch order and the raw candidate count.
func algorithm1(r *dataset.Set, sig *signature.Signature, ix *index.Inverted, phi SimFunc, opts Options) ([]*Candidate, int) {
	coll, n := ix.Collection(), len(r.Elements)
	cands, rejected := map[int32]*Candidate{}, map[int32]bool{}
	var order []int32
	for i, esig := range sig.Elements {
		for _, t := range esig.Tokens {
			for _, p := range ix.List(t) {
				c := cands[p.Set]
				if c == nil && !rejected[p.Set] {
					if opts.Accept != nil && !opts.Accept(p.Set) {
						rejected[p.Set] = true
						continue
					}
					c = &Candidate{Set: p.Set, BestSim: make([]float64, n), Passed: make([]bool, n)}
					for j := range c.BestSim {
						c.BestSim[j] = -1
					}
					cands[p.Set], order = c, append(order, p.Set)
				}
				if c == nil || !opts.CheckFilter {
					continue
				}
				if s := phi(&r.Elements[i], &coll.Sets[p.Set].Elements[p.Elem]); s > c.BestSim[i] {
					c.BestSim[i] = s
					if !c.Passed[i] && s > 0 && s >= esig.Bound {
						c.Passed[i] = true
						c.NumPassed++
					}
				}
			}
		}
	}
	var out []*Candidate
	for _, set := range order {
		if c := cands[set]; !opts.CheckFilter || c.NumPassed > 0 || sig.SumBound >= opts.PruneThreshold {
			out = append(out, c)
		}
	}
	return out, len(order)
}

// TestCollectorMatchesAlgorithm1 holds one long-lived Collector to the
// transcription above on random corpora of repeated elements, word and
// q-gram: the same sets in the same order, BestSim bit for bit, Passed,
// NumPassed and the raw count — with the check filter on and off, under an
// Accept that rejects (and must be asked once per set), under a signature
// whose bounds keep every candidate and one whose bounds let Algorithm 1
// reject, across references of every size the corpus has, across AppendSets
// and across the wrap of the epoch counter.
func TestCollectorMatchesAlgorithm1(t *testing.T) {
	seed := 7500 + memoRun.Add(1)
	for _, qgram := range []bool{false, true} {
		raws := datagen.RepeatedElements(seed, 70, 12)
		f := newMemoFixture(raws[:50], qgram, 0.6, 0.4)
		cl := NewCollector(f.ix)
		asked := map[int32]int{}
		accept := func(set int32) bool { asked[set]++; return set%3 != 0 }
		sizes := map[int]bool{}
		pass, wraps, dropped := 0, 0, 0
		check := func(stage string) {
			for ri := range f.coll.Sets {
				r := &f.coll.Sets[ri]
				sizes[len(r.Elements)] = true
				// keep holds every candidate (SumBound ≥ the threshold);
				// reject drops those no element of which passed.
				keep := fullSignature(r)
				reject := fullSignature(r)
				for i := range reject.Elements {
					reject.Elements[i].Bound = 0.5 + 0.1*float64(i%4)
				}
				for si, sig := range []*signature.Signature{keep, reject} {
					for _, opts := range []Options{
						{CheckFilter: true, PruneThreshold: sig.SumBound + float64(si)},
						{CheckFilter: true, PruneThreshold: sig.SumBound + float64(si), Accept: accept},
						{CheckFilter: false, Accept: accept},
					} {
						pass++
						wrap := pass%97 == 0
						if wrap {
							// This pass wraps the counter to 1, and must not
							// believe what pass 1 left behind 2³² passes ago:
							// here, that it rejected every set.
							cl.epoch = math.MaxUint32
							for i := range cl.state {
								cl.state[i] = setState{epoch: 1, idx: -1}
							}
							wraps++
						}
						label := fmt.Sprintf("seed=%d qgram=%v %s ref=%d sig=%d check=%v accept=%v",
							seed, qgram, stage, ri, si, opts.CheckFilter, opts.Accept != nil)
						clear(asked)
						got, gotRaw := cl.Collect(r, sig, f.phi, opts)
						if wrap && cl.epoch != 1 {
							t.Fatalf("%s: epoch %d after the wrap, want 1", label, cl.epoch)
						}
						for set, times := range asked {
							if times != 1 {
								t.Fatalf("%s: Accept asked %d times about set %d", label, times, set)
							}
						}
						want, wantRaw := algorithm1(r, sig, f.ix, f.phi, opts)
						if gotRaw != wantRaw {
							t.Fatalf("%s: raw count %d, Algorithm 1 finds %d", label, gotRaw, wantRaw)
						}
						sameCandidates(t, label, got, want)
						dropped += wantRaw - len(want)
					}
				}
			}
		}
		check("built")
		from := dataset.Append(f.coll, raws[50:])
		f.ix.AppendSets(from)
		check("appended")
		if len(sizes) < 3 {
			t.Errorf("seed=%d qgram=%v: references of %d distinct sizes; the corpus does not vary the row width", seed, qgram, len(sizes))
		}
		if wraps == 0 || dropped == 0 {
			t.Errorf("seed=%d qgram=%v: %d epoch wraps, %d candidates rejected by the check filter in %d passes; want both exercised",
				seed, qgram, wraps, dropped, pass)
		}
	}
}

// TestLayoutGate pins the sizes the engine's memory and the posting loop's
// cache footprint are multiples of, so that a field added to one of them
// fails here by name and not as a drift of the benchmark's heap_live_mb:
// an indexed collection pays dataset.Element once per element (a byte of it
// is 1.05 MiB on the benchmark's largest corpus), the index one DirEntry
// per element, every collector one setState per set.
func TestLayoutGate(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"dataset.Element", unsafe.Sizeof(dataset.Element{}), 72},
		{"index.DirEntry", unsafe.Sizeof(index.DirEntry{}), 8},
		{"filter.setState", unsafe.Sizeof(setState{}), 8},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestCollectorSteadyStateAllocs pins candidate collection at zero
// steady-state allocations: every Candidate and its backing slices must be
// recycled across passes.
func TestCollectorSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	r, sig, ix, _ := paperSetup(t)
	opts := Options{CheckFilter: true, PruneThreshold: 2.1 - pruneSlack}
	cl := NewCollector(ix)
	cl.Collect(r, sig, jacPhi, opts)
	cl.Collect(r, sig, jacPhi, opts)
	if got := testing.AllocsPerRun(100, func() { cl.Collect(r, sig, jacPhi, opts) }); got > 0 {
		t.Errorf("steady-state Collect allocates %.1f objects, want 0", got)
	}
}

// TestFreeCollectCopiesOut checks the pooled single-shot form: results from
// consecutive calls must not alias each other (the pooled collector's
// scratch is recycled between them).
func TestFreeCollectCopiesOut(t *testing.T) {
	r, sig, ix, _ := paperSetup(t)
	opts := Options{CheckFilter: true, PruneThreshold: 2.1 - pruneSlack}
	first, _ := Collect(r, sig, ix, jacPhi, opts)
	snapshot := make([]Candidate, len(first))
	for i, c := range first {
		snapshot[i] = Candidate{Set: c.Set, NumPassed: c.NumPassed,
			BestSim: append([]float64(nil), c.BestSim...),
			Passed:  append([]bool(nil), c.Passed...)}
	}
	Collect(r, sig, ix, jacPhi, Options{CheckFilter: false}) // would stomp shared scratch
	for i, c := range first {
		w := &snapshot[i]
		if c.Set != w.Set || c.NumPassed != w.NumPassed {
			t.Fatalf("cand %d mutated by later Collect: got set=%d passed=%d, want set=%d passed=%d",
				i, c.Set, c.NumPassed, w.Set, w.NumPassed)
		}
		for x := range c.BestSim {
			if c.BestSim[x] != w.BestSim[x] || c.Passed[x] != w.Passed[x] {
				t.Fatalf("cand %d elem %d mutated by later Collect", i, x)
			}
		}
	}
}
