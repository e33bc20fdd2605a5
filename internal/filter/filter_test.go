package filter

import (
	"math"
	"sort"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/paperdata"
	"silkmoth/internal/signature"
	"silkmoth/internal/sim"
	"silkmoth/internal/tokens"
)

const pruneSlack = 1e-6

// paperSetup builds Table 2's collection, index, reference set, and the
// signature of Examples 6/8/9: K_R = {{t8}, {t9,t10}, {t11,t12}} with
// bounds 0.8, 0.6, 0.6 (SumBound = 2.0 < θ = 2.1).
func paperSetup(t *testing.T) (*dataset.Set, *signature.Signature, *index.Inverted, *dataset.Collection) {
	t.Helper()
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, paperdata.CollectionS())
	ix := index.Build(coll)
	refColl := dataset.BuildWord(dict, []dataset.RawSet{paperdata.ReferenceR()})
	r := &refColl.Sets[0]

	id := func(label string) tokens.ID {
		v, ok := dict.Lookup(paperdata.TokenName(label))
		if !ok {
			t.Fatalf("token %s missing", label)
		}
		return v
	}
	sig := &signature.Signature{
		Elements: []signature.ElemSig{
			{Tokens: []tokens.ID{id("t8")}, Bound: 0.8},
			{Tokens: tokens.SortUnique([]tokens.ID{id("t9"), id("t10")}), Bound: 0.6},
			{Tokens: tokens.SortUnique([]tokens.ID{id("t11"), id("t12")}), Bound: 0.6},
		},
		SumBound: 2.0,
		Valid:    true,
	}
	return r, sig, ix, coll
}

func jacPhi(r, s *dataset.Element) float64 {
	return sim.JaccardSorted(r.Tokens, s.Tokens)
}

func candidateNames(coll *dataset.Collection, cs []*Candidate) []string {
	var names []string
	for _, c := range cs {
		names = append(names, coll.Sets[c.Set].Name)
	}
	sort.Strings(names)
	return names
}

// Example 3: the signature tokens produce candidates S2, S3, S4 (never S1).
func TestCandidateSelectionPaperExample3(t *testing.T) {
	r, sig, ix, coll := paperSetup(t)
	cands, _ := Collect(r, sig, ix, jacPhi, Options{CheckFilter: false})
	got := candidateNames(coll, cands)
	want := []string{"S2", "S3", "S4"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("candidates = %v, want %v", got, want)
	}
}

// Example 8: the check filter prunes S2 (both probed pairs fall below their
// bounds) and keeps S3 and S4.
func TestCheckFilterPaperExample8(t *testing.T) {
	r, sig, ix, coll := paperSetup(t)
	theta := 0.7 * 3
	cands, _ := Collect(r, sig, ix, jacPhi, Options{
		CheckFilter:    true,
		PruneThreshold: theta - pruneSlack,
	})
	got := candidateNames(coll, cands)
	if len(got) != 2 || got[0] != "S3" || got[1] != "S4" {
		t.Fatalf("after check filter = %v, want [S3 S4]", got)
	}
	// Verify the reuse data on S3: r1 passed with similarity 5/6.
	for _, c := range cands {
		if coll.Sets[c.Set].Name != "S3" {
			continue
		}
		if !c.Passed[0] || math.Abs(c.BestSim[0]-5.0/6.0) > 1e-12 {
			t.Errorf("S3 r1: passed=%v best=%v, want true, 5/6", c.Passed[0], c.BestSim[0])
		}
		if c.Passed[1] {
			t.Error("S3 r2 should not pass (its signature tokens miss S3)")
		}
	}
}

// Example 9: the nearest-neighbor filter prunes S3 — the estimate
// 5/6 + 0.125 + 0.6 < 2.1 — and terminates before searching r3.
func TestNNFilterPaperExample9(t *testing.T) {
	r, sig, ix, coll := paperSetup(t)
	theta := 0.7 * 3
	cands, _ := Collect(r, sig, ix, jacPhi, Options{
		CheckFilter:    true,
		PruneThreshold: theta - pruneSlack,
	})
	floors := NoShareFloors(r, sig, dataset.ModeWord, 0)

	searches := 0
	counting := func(re, se *dataset.Element) float64 {
		searches++
		return jacPhi(re, se)
	}
	ns := NewNNSearcher(ix, counting)

	for _, c := range cands {
		name := coll.Sets[c.Set].Name
		keep := NNFilter(r, sig, c, ns, floors, theta-pruneSlack)
		switch name {
		case "S3":
			if keep {
				t.Error("NN filter should prune S3")
			}
		case "S4":
			if !keep {
				t.Error("NN filter should keep S4")
			}
		}
	}
	// Early termination: for S3 only r2 is searched (2 probes: s31 via t4,
	// s33 via t5); r3's search never happens. S4 needs one search for r3.
	if searches > 4 {
		t.Errorf("NN search probed %d element pairs; early termination broken", searches)
	}
}

func TestNNSearcherFindsTrueNearestNeighbor(t *testing.T) {
	r, _, ix, coll := paperSetup(t)
	ns := NewNNSearcher(ix, jacPhi)
	// Exhaustively verify Search against direct max for every (element, set).
	for i := range r.Elements {
		for set := range coll.Sets {
			got := ns.Search(&r.Elements[i], int32(set))
			want := 0.0
			for j := range coll.Sets[set].Elements {
				if s := jacPhi(&r.Elements[i], &coll.Sets[set].Elements[j]); s > want {
					want = s
				}
			}
			// Under Jaccard, elements sharing no token have similarity
			// 0, so index-based search is exhaustive.
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("NNSearch(r%d, S%d) = %v, want %v", i+1, set+1, got, want)
			}
		}
	}
}

func TestNNSearcherDedupesAcrossTokens(t *testing.T) {
	r, _, ix, _ := paperSetup(t)
	calls := 0
	ns := NewNNSearcher(ix, func(re, se *dataset.Element) float64 {
		calls++
		return jacPhi(re, se)
	})
	// r1 shares many tokens with S3's elements; each element must be
	// evaluated exactly once despite appearing in several token lists.
	ns.Search(&r.Elements[0], 2)
	if calls > 3 {
		t.Errorf("NN search evaluated %d similarities for a 3-element set", calls)
	}
}

func TestCollectAcceptPredicate(t *testing.T) {
	r, sig, ix, coll := paperSetup(t)
	calls := make(map[int32]int)
	cands, _ := Collect(r, sig, ix, jacPhi, Options{
		CheckFilter: false,
		Accept: func(set int32) bool {
			calls[set]++
			return coll.Sets[set].Name != "S2"
		},
	})
	got := candidateNames(coll, cands)
	if len(got) != 2 || got[0] != "S3" || got[1] != "S4" {
		t.Errorf("accept-filtered candidates = %v", got)
	}
	for set, n := range calls {
		if n != 1 {
			t.Errorf("Accept called %d times for set %d, want 1", n, set)
		}
	}
}

func TestCollectEmptySignature(t *testing.T) {
	r, _, ix, _ := paperSetup(t)
	sig := &signature.Signature{
		Elements: make([]signature.ElemSig, len(r.Elements)),
		Valid:    true,
	}
	cands, _ := Collect(r, sig, ix, jacPhi, Options{CheckFilter: true, PruneThreshold: 2})
	if len(cands) != 0 {
		t.Errorf("empty signature should yield no candidates, got %d", len(cands))
	}
}

// A signature whose SumBound exceeds the pruning threshold (the
// CombUnweighted case) must keep candidates even when nothing passes the
// check: pruning on unsound totals would lose related sets.
func TestCheckFilterRespectsSumBound(t *testing.T) {
	r, sig, ix, _ := paperSetup(t)
	big := &signature.Signature{
		Elements: sig.Elements,
		SumBound: 3.0, // ≥ θ: the bound argument proves nothing
		Valid:    true,
	}
	theta := 0.7 * 3
	withBig, _ := Collect(r, big, ix, jacPhi, Options{CheckFilter: true, PruneThreshold: theta - pruneSlack})
	noCheck, _ := Collect(r, big, ix, jacPhi, Options{CheckFilter: false})
	if len(withBig) != len(noCheck) {
		t.Errorf("check filter pruned despite SumBound ≥ θ: %d vs %d", len(withBig), len(noCheck))
	}
}

func TestNoShareFloorsWordModeZero(t *testing.T) {
	r, sig, _, _ := paperSetup(t)
	floors := NoShareFloors(r, sig, dataset.ModeWord, 0)
	for i, f := range floors {
		if f != 0 {
			t.Errorf("word-mode floor[%d] = %v, want 0", i, f)
		}
	}
}

func TestNoShareFloorsQGram(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildQGram(dict, []dataset.RawSet{
		{Name: "S", Elements: []string{"abcdef"}},
	}, 2)
	ix := index.Build(coll)
	_ = ix
	refColl := dataset.BuildQGram(dict, []dataset.RawSet{
		{Name: "R", Elements: []string{"abcdef"}}, // |r|=6, 3 chunks
	}, 2)
	r := &refColl.Sets[0]
	sig := &signature.Signature{
		Elements: []signature.ElemSig{{Tokens: r.Chunks(0)[:1], Bound: 6.0 / 7.0}},
		SumBound: 6.0 / 7.0,
		Valid:    true,
	}
	// α = 0: floor = |r|/(|r|+⌈|r|/q⌉) = 6/9, capped at Bound.
	floors := NoShareFloors(r, sig, dataset.ModeQGram, 0)
	if math.Abs(floors[0]-6.0/9.0) > 1e-12 {
		t.Errorf("floor = %v, want 2/3", floors[0])
	}
	// α = 0.8 > 2/3: the floor collapses to 0.
	floors = NoShareFloors(r, sig, dataset.ModeQGram, 0.8)
	if floors[0] != 0 {
		t.Errorf("thresholded floor = %v, want 0", floors[0])
	}
	// The floor never exceeds the element bound.
	sig.Elements[0].Bound = 0.5
	floors = NoShareFloors(r, sig, dataset.ModeQGram, 0)
	if floors[0] != 0.5 {
		t.Errorf("capped floor = %v, want 0.5", floors[0])
	}
}

// Property-style soundness check: every set the NN filter prunes must truly
// score below θ under maximum matching (exhaustive comparison on Table 2).
func TestNNFilterSoundnessOnPaperData(t *testing.T) {
	r, sig, ix, coll := paperSetup(t)
	theta := 0.7 * 3
	cands, _ := Collect(r, sig, ix, jacPhi, Options{CheckFilter: true, PruneThreshold: theta - pruneSlack})
	floors := NoShareFloors(r, sig, dataset.ModeWord, 0)
	ns := NewNNSearcher(ix, jacPhi)
	for _, c := range cands {
		if NNFilter(r, sig, c, ns, floors, theta-pruneSlack) {
			continue
		}
		// Pruned: its true matching score must fall below θ.
		score := exactScore(r, &coll.Sets[c.Set])
		if score >= theta {
			t.Errorf("NN filter pruned %s whose true score %v ≥ θ", coll.Sets[c.Set].Name, score)
		}
	}
}

// exactScore computes the true maximum matching score via the n³ matcher.
func exactScore(r, s *dataset.Set) float64 {
	w := make([][]float64, len(r.Elements))
	for i := range w {
		w[i] = make([]float64, len(s.Elements))
		for j := range w[i] {
			w[i][j] = jacPhi(&r.Elements[i], &s.Elements[j])
		}
	}
	best := 0.0
	var rec func(i int, used map[int]bool, acc float64)
	rec = func(i int, used map[int]bool, acc float64) {
		if i == len(w) {
			if acc > best {
				best = acc
			}
			return
		}
		rec(i+1, used, acc)
		for j := range w[i] {
			if used[j] {
				continue
			}
			used[j] = true
			rec(i+1, used, acc+w[i][j])
			used[j] = false
		}
	}
	rec(0, map[int]bool{}, 0)
	return best
}
