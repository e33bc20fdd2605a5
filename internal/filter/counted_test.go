package filter

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/signature"
	"silkmoth/internal/sim"
	"silkmoth/internal/tokens"
)

// boundedCorpus generates sets whose elements are 0–6 words over a small
// vocabulary: many elements share tokens without being equal, some hold one
// token, a few are empty, and whole elements repeat across sets.
func boundedCorpus(rng *rand.Rand, nSets int) []dataset.RawSet {
	raws := make([]dataset.RawSet, nSets)
	for i := range raws {
		es := make([]string, 1+rng.Intn(5))
		for j := range es {
			words := make([]string, rng.Intn(7))
			if rng.Intn(4) == 0 {
				words = words[:min(len(words), 1)]
			}
			for w := range words {
				words[w] = fmt.Sprintf("v%d", rng.Intn(14))
			}
			es[j] = strings.Join(words, " ")
		}
		raws[i] = dataset.RawSet{Name: fmt.Sprintf("B%d", i), Elements: es}
	}
	return raws
}

// collectedPass is a deep copy of what one Collect returned, by set.
type collectedPass struct {
	raw   int
	order []int32
	bySet map[int32]Candidate
}

func copyPass(cands []*Candidate, raw int) collectedPass {
	p := collectedPass{raw: raw, bySet: map[int32]Candidate{}}
	for _, c := range cands {
		p.order = append(p.order, c.Set)
		p.bySet[c.Set] = Candidate{
			Set: c.Set, NumPassed: c.NumPassed,
			BestSim: append([]float64(nil), c.BestSim...),
			Passed:  append([]bool(nil), c.Passed...),
		}
	}
	return p
}

// requireSameDecisions holds a bounding collector's pass to the plain one's:
// the same raw count and the same candidate sets, each with the same Passed,
// NumPassed and, on every passed cell, the same BestSim bits. On a cell that
// did not pass the bounding collector may have dropped pairs the plain one
// scored, so its BestSim is only required not to exceed the plain one's.
func requireSameDecisions(t *testing.T, label string, got, want collectedPass) {
	t.Helper()
	if got.raw != want.raw || len(got.bySet) != len(want.bySet) {
		t.Fatalf("%s: %d candidates of %d raw, want %d of %d", label, len(got.bySet), got.raw, len(want.bySet), want.raw)
	}
	for set, w := range want.bySet {
		g, ok := got.bySet[set]
		if !ok {
			t.Fatalf("%s: set %d is missing", label, set)
		}
		if g.NumPassed != w.NumPassed {
			t.Fatalf("%s: set %d: %d elements passed, want %d", label, set, g.NumPassed, w.NumPassed)
		}
		for i := range w.BestSim {
			if g.Passed[i] != w.Passed[i] ||
				(w.Passed[i] && math.Float64bits(g.BestSim[i]) != math.Float64bits(w.BestSim[i])) ||
				g.BestSim[i] > w.BestSim[i] {
				t.Fatalf("%s: set %d element %d: (%v,%v), want (%v,%v)", label, set, i, g.BestSim[i], g.Passed[i], w.BestSim[i], w.Passed[i])
			}
		}
	}
}

// probeVolume counts, for the sets accept lets through, the postings the
// signature's tokens reach and the distinct ⟨reference element, candidate
// element⟩ pairs among them: what a per-posting and a per-pair collector
// must each report having looked at.
func probeVolume(sig *signature.Signature, ix *index.Inverted, accept func(int32) bool) (postings, pairs int64) {
	for i := range sig.Elements {
		seen := map[index.Posting]bool{}
		for _, tok := range sig.Elements[i].Tokens {
			for _, p := range ix.List(tok) {
				if accept != nil && !accept(p.Set) {
					continue
				}
				postings++
				if !seen[p] {
					seen[p] = true
					pairs++
				}
			}
		}
	}
	return postings, pairs
}

// TestCountedCollectorMatchesUnarmed is the differential of the check
// filter's count bound: one collector set up with CountOverlaps and one left
// as NewCollector built it, over the same index and the same signature,
// must decide every candidate alike (requireSameDecisions) — as sets: the
// counting collector meets a reference element's postings merged in ⟨set,
// element⟩ order where the plain one goes token by token, so first-touch
// order differs and nothing downstream depends on it — and the
// nearest-neighbor filter must then keep the same sets of either pass,
// which it can only do if it never reads BestSim off a cell that did not
// pass. The grid is similarity × α × signature scheme × check filter on/off
// × heap/compressed postings (a cache so small that cursors stream) × before
// and after AppendSets, with and without an Accept that rejects (asked once
// per set), over indexed references and a query holding words the index has
// never seen, an empty element, a single-token element and an element
// repeated verbatim. Three hand-built signatures go through the same grid:
// one probing every token of every element, so that the count is the
// overlap and no pair needs the kernel, and two that break L_i ⊆ r_i,
// duplicate-free — a token its element does not hold, a token held twice —
// which the collector's guard must make merely unbounded.
//
// The counts are held to the index: the counting collector reports one
// look per distinct pair, the plain one one per posting, and across the grid
// every way of deciding a pair — kernel, memo, exact count, bound — is used.
func TestCountedCollectorMatchesUnarmed(t *testing.T) {
	seed := 7600 + memoRun.Add(1)
	rng := rand.New(rand.NewSource(seed))
	raws := boundedCorpus(rng, 60)
	queryRaw := dataset.RawSet{Name: "query", Elements: []string{
		raws[0].Elements[0] + " neverindexed", "", "v3", "alsonew words", "v1 v2 v3 v4", "v1 v2 v3 v4",
	}}
	var total, totalPlain SimCounts
	for _, s := range []struct {
		name        string
		family      signature.Family
		fromOverlap sim.OverlapFunc
		sorted      func(a, b []tokens.ID) float64
	}{
		{"Jaccard", signature.FamilyJaccard, sim.JaccardFromOverlap, sim.JaccardSorted},
		{"Dice", signature.FamilyDice, sim.DiceFromOverlap, sim.DiceSorted},
		{"Cosine", signature.FamilyCosine, sim.CosineFromOverlap, sim.CosineSorted},
	} {
		for _, alpha := range []float64{0, 0.5, 0.8} {
			phi := func(r, e *dataset.Element) float64 { return sim.Alpha(s.sorted(r.Tokens, e.Tokens), alpha) }
			params := signature.Params{Delta: 0.6, Alpha: alpha, Family: s.family}
			for _, compressed := range []bool{false, true} {
				coll := dataset.BuildWord(tokens.NewDictionary(), raws[:40])
				ix := index.Build(coll)
				if compressed {
					ix = index.BuildCompressed(coll, 64)
				}
				armed, plain := NewCollector(ix), NewCollector(ix)
				armed.CountOverlaps(s.fromOverlap, alpha)
				ns := NewNNSearcher(ix, phi)
				ns.CountOverlaps(s.fromOverlap, alpha)
				asked := map[int32]int{}
				rejecting := func(set int32) bool { asked[set]++; return set%3 != 0 }
				check := func(stage string) {
					refs := []*dataset.Set{&dataset.BuildQuery(coll.Dict, []dataset.RawSet{queryRaw}, coll.Mode, coll.Q).Sets[0]}
					for si := range coll.Sets {
						refs = append(refs, &coll.Sets[si])
					}
					for ri, r := range refs {
						sigs := map[string]*signature.Signature{"every token": fullSignature(r)}
						for _, kind := range []signature.Kind{signature.Weighted, signature.Skyline, signature.Dichotomy, signature.CombUnweighted} {
							var sel signature.Selector
							sig, _ := sel.Generate(kind, r, params, ix)
							sigs[kind.String()] = sig
						}
						// Signatures no scheme generates: every element also
						// probes a token it does not hold, or one token twice.
						twice := fullSignature(r)
						for i := range twice.Elements {
							if toks := r.Elements[i].Tokens; len(toks) > 1 {
								twice.Elements[i].Tokens = append([]tokens.ID{toks[0]}, toks[:len(toks)-1]...)
							}
						}
						sigs["a token twice"] = twice
						outside := fullSignature(r)
						for i := range outside.Elements {
							for tok := tokens.ID(0); int(tok) < ix.NumTokens(); tok++ {
								if ix.ListLen(tok) > 0 && sim.IntersectSizeSortedRef([]tokens.ID{tok}, r.Elements[i].Tokens) == 0 {
									outside.Elements[i].Tokens = tokens.SortUnique(append([]tokens.ID{tok}, r.Elements[i].Tokens...))
									break
								}
							}
						}
						sigs["outside its element"] = outside
						for name, sig := range sigs {
							if !sig.Valid {
								t.Fatalf("seed=%d %s α=%v: scheme %s has no valid signature for a word-mode reference", seed, s.name, alpha, name)
							}
							prune := params.Delta*float64(len(r.Elements)) - pruneSlack
							floors := NoShareFloors(r, sig, coll.Mode, alpha)
							for _, opts := range []Options{
								{CheckFilter: true, PruneThreshold: prune},
								{CheckFilter: true, PruneThreshold: prune, Accept: rejecting},
								{CheckFilter: false, Accept: rejecting},
							} {
								label := fmt.Sprintf("seed=%d %s α=%v compressed=%v %s ref=%d sig=%q check=%v accept=%v",
									seed, s.name, alpha, compressed, stage, ri, name, opts.CheckFilter, opts.Accept != nil)
								clear(asked)
								gotCands, gotRaw := armed.Collect(r, sig, phi, opts)
								for set, times := range asked {
									if times != 1 {
										t.Fatalf("%s: Accept asked %d times about set %d", label, times, set)
									}
								}
								got := copyPass(gotCands, gotRaw)
								gotKept := map[int32]bool{}
								for _, c := range gotCands {
									gotKept[c.Set] = NNFilter(r, sig, c, ns, floors, prune)
								}
								wantCands, wantRaw := plain.Collect(r, sig, phi, opts)
								requireSameDecisions(t, label, got, copyPass(wantCands, wantRaw))
								for _, c := range wantCands {
									if kept := NNFilter(r, sig, c, ns, floors, prune); kept != gotKept[c.Set] {
										t.Fatalf("%s: the nearest-neighbor filter keeps set %d: %v after the counting collector, %v after the plain one", label, c.Set, gotKept[c.Set], kept)
									}
								}
								n, np := armed.TakeSimCounts(), plain.TakeSimCounts()
								var accept func(int32) bool
								if opts.Accept != nil {
									accept = func(set int32) bool { return set%3 != 0 }
								}
								postings, pairs := probeVolume(sig, ix, accept)
								if !opts.CheckFilter {
									postings, pairs = 0, 0 // no similarity is asked for
								}
								if looked := n.Evals + n.MemoHits + n.Counted + n.Bounded; looked != pairs {
									t.Fatalf("%s: the counting collector looked at %d pairs (%+v), the signature reaches %d distinct ones", label, looked, n, pairs)
								}
								if np.Evals+np.MemoHits != postings || np.Counted != 0 || np.Bounded != 0 {
									t.Fatalf("%s: the plain collector counted %+v over %d postings", label, np, postings)
								}
								if name == "every token" && n.Evals+n.MemoHits+n.Bounded != 0 {
									t.Fatalf("%s: the signature covers every element, yet %+v", label, n)
								}
								total.Evals, total.MemoHits = total.Evals+n.Evals, total.MemoHits+n.MemoHits
								total.Counted, total.Bounded = total.Counted+n.Counted, total.Bounded+n.Bounded
								totalPlain.Evals, totalPlain.MemoHits = totalPlain.Evals+np.Evals, totalPlain.MemoHits+np.MemoHits
							}
						}
					}
				}
				check("built")
				ix.AppendSets(dataset.Append(coll, raws[40:]))
				check("appended")
				if n := ix.DecodeErrors(); n != 0 {
					t.Fatalf("seed=%d %s α=%v compressed=%v: %d container decode errors", seed, s.name, alpha, compressed, n)
				}
			}
		}
	}
	if total.Evals == 0 || total.MemoHits == 0 || total.Counted == 0 || total.Bounded == 0 {
		t.Errorf("seed=%d: the counting collector's pairs were decided %+v: want every way used", seed, total)
	}
	if kernel, plainKernel := total.Evals+total.MemoHits, totalPlain.Evals+totalPlain.MemoHits; kernel*2 > plainKernel {
		t.Errorf("seed=%d: %d pairs reached the memo or the kernel, of the plain collector's %d postings: the bound decides too little to be working", seed, kernel, plainKernel)
	}
}

// TestLengthBoundedCollectorMatchesUnarmed is the same differential for the
// edit similarities' length test (BoundByLength): same candidates in the
// same order — the loop is the plain collector's — with the same decisions,
// each posting either dropped on its length or asked of the memo, over Eds
// and NEds × α × check filter on/off × heap/compressed × AppendSets.
func TestLengthBoundedCollectorMatchesUnarmed(t *testing.T) {
	seed := 7700 + memoRun.Add(1)
	rng := rand.New(rand.NewSource(seed))
	// Titles of very different lengths over a small alphabet, so that
	// q-grams are shared between strings whose lengths rule a match out.
	raws := make([]dataset.RawSet, 80)
	for i := range raws {
		es := make([]string, 1+rng.Intn(4))
		for j := range es {
			b := make([]byte, rng.Intn(3)*rng.Intn(12)+rng.Intn(9))
			for k := range b {
				b[k] = "abcd"[rng.Intn(4)]
			}
			es[j] = string(b)
		}
		raws[i] = dataset.RawSet{Name: fmt.Sprintf("T%d", i), Elements: es}
	}
	var total SimCounts
	for _, s := range []struct {
		name   string
		kernel func(x, y string, lx, ly int, alpha float64) float64
		bound  func(lx, ly int, alpha float64) float64
	}{
		{"Eds", sim.EdsAlphaLen, sim.EdsLenBound},
		{"NEds", sim.NEdsAlphaLen, sim.NEdsLenBound},
	} {
		for _, alpha := range []float64{0, 0.5, 0.8} {
			phi := func(r, e *dataset.Element) float64 {
				return s.kernel(r.Raw, e.Raw, int(r.Length), int(e.Length), alpha)
			}
			for _, compressed := range []bool{false, true} {
				coll := dataset.BuildQGram(tokens.NewDictionary(), raws[:55], 2)
				ix := index.Build(coll)
				if compressed {
					ix = index.BuildCompressed(coll, 64)
				}
				armed, plain := NewCollector(ix), NewCollector(ix)
				armed.BoundByLength(func(lx, ly int) float64 { return s.bound(lx, ly, alpha) })
				check := func(stage string) {
					for ri := range coll.Sets {
						r := &coll.Sets[ri]
						// Every q-gram probes, at bounds from "anything
						// passes" to "only near-equal lengths can".
						sig := fullSignature(r)
						for i := range sig.Elements {
							sig.Elements[i].Bound = []float64{0, 0.3, 0.6, 0.9}[(ri+i)%4]
						}
						for _, opts := range []Options{
							{CheckFilter: true, PruneThreshold: 0.6 * float64(len(r.Elements))},
							{CheckFilter: true, PruneThreshold: 0.6 * float64(len(r.Elements)), Accept: func(set int32) bool { return set%3 != 0 }},
							{CheckFilter: false},
						} {
							label := fmt.Sprintf("seed=%d %s α=%v compressed=%v %s ref=%d check=%v accept=%v",
								seed, s.name, alpha, compressed, stage, ri, opts.CheckFilter, opts.Accept != nil)
							gotCands, gotRaw := armed.Collect(r, sig, phi, opts)
							got := copyPass(gotCands, gotRaw)
							wantCands, wantRaw := plain.Collect(r, sig, phi, opts)
							want := copyPass(wantCands, wantRaw)
							requireSameDecisions(t, label, got, want)
							if fmt.Sprint(got.order) != fmt.Sprint(want.order) {
								t.Fatalf("%s: candidates in order %v, the plain collector's %v", label, got.order, want.order)
							}
							n, np := armed.TakeSimCounts(), plain.TakeSimCounts()
							if n.Evals+n.MemoHits+n.Bounded != np.Evals+np.MemoHits || n.Counted != 0 || np.Bounded != 0 {
								t.Fatalf("%s: the bounding collector counted %+v, the plain one %+v: postings do not add up", label, n, np)
							}
							total.Evals, total.MemoHits, total.Bounded = total.Evals+n.Evals, total.MemoHits+n.MemoHits, total.Bounded+n.Bounded
						}
					}
				}
				check("built")
				ix.AppendSets(dataset.Append(coll, raws[55:]))
				check("appended")
			}
		}
	}
	if total.Evals == 0 || total.MemoHits == 0 || total.Bounded == 0 {
		t.Errorf("seed=%d: postings were decided %+v: want the kernel, the memo and the length test all used", seed, total)
	}
}

// TestLenWindow holds the window to the bound it was opened with: a length
// inside it passes the element test, a length outside fails it, for both
// edit similarities, thresholds from 0 (where every length passes and the
// search has to give up) to near 1, and reference lengths from 0 up.
func TestLenWindow(t *testing.T) {
	for name, bound := range map[string]func(lx, ly int, alpha float64) float64{"Eds": sim.EdsLenBound, "NEds": sim.NEdsLenBound} {
		for _, alpha := range []float64{0, 0.3, 0.8, 0.97} {
			ub := func(lx, ly int) float64 { return bound(lx, ly, alpha) }
			for _, b := range []float64{0, 0.05, 0.5, 0.9, 1, 1.5} {
				for lr := int32(0); lr < 200; lr += 1 + lr/7 {
					lo, hi := lenWindow(ub, lr, b)
					for ls := int32(0); ls < 4*lr+2*lenWindowSteps; ls++ {
						in, ok := ls >= lo && ls <= hi, passes(ub(int(lr), int(ls)), b)
						// Past lenWindowSteps the window may be wider than
						// the truth, never narrower.
						if ok && !in || in && !ok && ls >= lr-lenWindowSteps && ls <= lr+lenWindowSteps {
							t.Fatalf("%s α=%v bound=%v lr=%d: window [%d,%d], but length %d passes: %v", name, alpha, b, lr, lo, hi, ls, ok)
						}
					}
					if lr > 0 && b <= 1 && (lo > lr || hi < lr) {
						t.Fatalf("%s α=%v bound=%v lr=%d: window [%d,%d] excludes equal lengths", name, alpha, b, lr, lo, hi)
					}
				}
			}
		}
	}
}
