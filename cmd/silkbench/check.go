package main

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"silkmoth"
)

// compareBudget bounds the silkmoth.Compare calls the brute-force check
// spends on its sampled references: Compare builds a one-set engine per
// call, so comparing 64 references against every set of a 36k-set corpus
// would take minutes. At small scales the budget covers the whole corpus.
const compareBudget = 24000

// exhaustiveRefs is how many of the references are compared against every
// set of the corpus whatever that costs, so that a match the engine misses
// far from where datagen plants them cannot hide from the sample.
const exhaustiveRefs = 1

// boundaryBand is the distance from δ within which a set's membership in
// the answer is not checked: the engine accepts at θ − 1e-9 on the
// matching score, which brute force on the relatedness value cannot
// reproduce to the last bit.
const boundaryBand = 1e-7

// scoreTolerance is how far a relatedness value may differ between the
// engine's pipeline and Compare's one-set engine: both run the same
// matching, but not always over the same element order.
const scoreTolerance = 1e-9

// bruteForceCheck verifies Engine.Search on the references at refs (indices
// into sets) against silkmoth.Compare, on every core: the check is outside
// the timed region. The first exhaustiveRefs references are compared with
// every live set. For the others every engine match is
// recomputed; misses are looked for in the reference's neighbours in
// generation order, where datagen plants the near-duplicates and supersets,
// and in a seeded sample of the rest of the corpus as large as the budget
// allows.
func bruteForceCheck(ctx context.Context, eng *silkmoth.Engine, cfg silkmoth.Config, sets []silkmoth.Set, refs []int, o options, rep *workloadReport) {
	if len(refs) == 0 {
		return
	}
	cfg.DataDir = "" // Compare builds throwaway engines; keep them off disk
	perRef := compareBudget / len(refs)
	rng := rand.New(rand.NewSource(o.seed ^ 0xb407e))
	for n, ri := range refs {
		rep.Attempted++
		ref := sets[ri]
		ms, err := eng.SearchContext(ctx, ref)
		if err != nil {
			rep.Failed++
			rep.note("search %d: %v", ri, err)
			continue
		}
		if o.corrupt && n == 0 {
			ms = append(ms, silkmoth.Match{Index: (ri + len(sets)/2) % len(sets), Relatedness: 1})
		}
		engine := make(map[int]float64, len(ms))
		against := make(map[int]bool)
		for _, m := range ms {
			engine[m.Index] = m.Relatedness
			against[m.Index] = true
		}
		for d := -2; d <= 2; d++ {
			if s := ri + d; s >= 0 && s < len(sets) {
				against[s] = true
			}
		}
		if n < exhaustiveRefs || perRef >= len(sets) {
			for s := range sets {
				against[s] = true
			}
		} else {
			for len(against) < perRef {
				against[rng.Intn(len(sets))] = true
			}
		}
		var order []int
		for s := range against {
			if eng.Live(s) {
				order = append(order, s)
			}
		}
		slices.Sort(order)
		rels := make([]float64, len(order))
		errs := make([]error, len(order))
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(order); i += workers {
					rels[i], errs[i] = silkmoth.Compare(ref, sets[order[i]], cfg)
				}
			}(w)
		}
		wg.Wait()
		bad := 0
		for i, s := range order {
			rel := rels[i]
			if errs[i] != nil {
				bad++
				rep.note("compare %d,%d: %v", ri, s, errs[i])
				continue
			}
			got, found := engine[s]
			switch {
			case rel >= cfg.Delta+boundaryBand && !found:
				bad++
				rep.note("set %d is related to %d (%.6f) but search missed it", s, ri, rel)
			case rel < cfg.Delta-boundaryBand && found:
				bad++
				rep.note("search relates %d to %d but brute force says %.6f", s, ri, rel)
			case found && math.Abs(got-rel) > scoreTolerance:
				bad++
				rep.note("search scores %d,%d %.9f, brute force %.9f", ri, s, got, rel)
			}
		}
		if bad > 0 {
			rep.Failed++
		}
	}
}

// answer is one match reduced to what does not depend on how an engine
// numbers its sets.
type answer struct {
	Name        string
	Relatedness float64
	Score       float64
}

// canonical orders matches by descending relatedness, then name, so that
// answers from engines with different set ids compare equal.
func canonical(ms []silkmoth.Match) []answer {
	out := make([]answer, len(ms))
	for i, m := range ms {
		out[i] = answer{Name: m.Name, Relatedness: m.Relatedness, Score: m.MatchingScore}
	}
	slices.SortFunc(out, func(a, b answer) int {
		if c := cmp.Compare(b.Relatedness, a.Relatedness); c != 0 {
			return c
		}
		return cmp.Compare(a.Name, b.Name)
	})
	return out
}
