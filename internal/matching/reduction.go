package matching

// ScoreWithReduction computes the maximum-weight bipartite matching score
// between nR left elements and nS right elements, first removing pairs of
// identical elements per the triangle-inequality reduction of paper §5.3:
// when the dual distance 1-φ is a metric, every pair of identical elements
// appears in some maximum matching, so identical pairs can be matched
// outright (score 1 each) and the O(n³) matching run only on the remainder.
//
// keyR[i] and keyS[j] are exact content keys: two elements are identical iff
// their keys are equal and non-empty. An empty key marks an element that can
// never be reduced (e.g. an element with no tokens, whose self-similarity is
// 0 by convention). sim(i, j) returns φ_α between left element i and right
// element j and is only invoked for unreduced elements.
//
// This is the string-keyed convenience form: it interns the keys to dense
// integers and delegates to Scratch.ScoreReduced, which the engine's hot
// path calls directly with build-time interned keys (dataset.DirEntry.Key).
//
// The caller is responsible for only using this when 1-φ satisfies the
// triangle inequality and α = 0 (paper §6.5): Jaccard and Eds qualify,
// NEds and any α > 0 do not.
func ScoreWithReduction(keyR, keyS []string, sim func(i, j int) float64) float64 {
	ids := make(map[string]int32, len(keyR)+len(keyS))
	conv := func(keys []string) []int32 {
		out := make([]int32, len(keys))
		for i, k := range keys {
			if k == "" {
				out[i] = -1
				continue
			}
			id, ok := ids[k]
			if !ok {
				id = int32(len(ids))
				ids[k] = id
			}
			out[i] = id
		}
		return out
	}
	kr, ks := conv(keyR), conv(keyS)
	var sc Scratch
	return sc.ScoreReduced(kr, ks, simFunc(sim))
}

// Score computes the maximum-weight bipartite matching score between nR and
// nS elements without the reduction. This is the allocation-per-call form of
// Scratch.Score.
func Score(nR, nS int, sim func(i, j int) float64) float64 {
	var sc Scratch
	return sc.Score(nR, nS, simFunc(sim))
}
