package silkmoth

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"silkmoth/internal/datagen"
	"silkmoth/internal/filter"
)

// memoRun numbers the executions of the seed-dependent grid below within
// one process, so `go test -count=2` runs it on two different corpora.
var memoRun atomic.Int64

// TestMemoEvictionGridPublic is the public-API twin of internal/core's
// eviction grid: with the filters' similarity memo shrunk to 2 slots, on a
// corpus whose elements come from a pool of 10 strings, DiscoverContext and
// SearchContext on one shard and on two, with one worker and with four, must
// report exactly the pairs whose pairwise Compare clears δ — for every
// similarity function, both metrics and three α. Compare runs no filter and never
// reads an index (it scores two un-indexed sets with the dense kernel fill),
// so it is the oracle for the memo and for the overlap-count path alike:
// under Jaccard, Dice and Cosine the engine's nearest-neighbor filter and
// verification score from index overlap counts (Stats.SimCounted > 0), under
// the edit similarities they must not.
func TestMemoEvictionGridPublic(t *testing.T) {
	defer filter.SetMemoSlotsForTest(2)()
	seed := 9100 + memoRun.Add(1)
	var sets []Set
	for _, rs := range datagen.RepeatedElements(seed, 18, 10) {
		sets = append(sets, Set{Name: rs.Name, Elements: rs.Elements})
	}
	const delta = 0.6
	for _, simFn := range []Similarity{Jaccard, Dice, Cosine, Eds, NEds} {
		for _, metric := range []Metric{SetSimilarity, SetContainment} {
			for _, alpha := range []float64{0, 0.5, 0.8} {
				cfg := Config{Metric: metric, Similarity: simFn, Delta: delta, Alpha: alpha}
				// related[r][s]: the oracle's verdict on the ordered pair.
				related := make([][]bool, len(sets))
				for r := range sets {
					related[r] = make([]bool, len(sets))
					for s := range sets {
						if r == s || (metric == SetContainment && len(sets[r].Elements) > len(sets[s].Elements)) {
							continue // Definition 2: |R| ≤ |S|
						}
						rel, err := Compare(sets[r], sets[s], cfg)
						if err != nil {
							t.Fatal(err)
						}
						related[r][s] = rel >= delta-1e-9
					}
				}
				for _, shape := range [][2]int{{1, 1}, {2, 1}, {1, 4}, {2, 4}} {
					cfg.Shards, cfg.Concurrency = shape[0], shape[1]
					label := fmt.Sprintf("seed=%d %v %v α=%v shards=%d concurrency=%d", seed, simFn, metric, alpha, cfg.Shards, cfg.Concurrency)
					eng, err := NewEngine(sets, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := make(map[[2]int]bool)
					for _, p := range mustDiscover(t, eng) {
						got[[2]int{p.R, p.S}] = true
					}
					for r := range sets {
						for s := range sets {
							if metric == SetSimilarity && s <= r {
								continue // unordered pairs are reported once
							}
							if got[[2]int{r, s}] != related[r][s] {
								t.Fatalf("%s: Discover reports (%d,%d) = %v, Compare says %v", label, r, s, got[[2]int{r, s}], related[r][s])
							}
						}
						ms, err := eng.SearchContext(context.Background(), sets[r])
						if err != nil {
							t.Fatal(err)
						}
						found := make([]bool, len(sets))
						for _, m := range ms {
							found[m.Index] = true
						}
						for s := range sets {
							if s != r && found[s] != related[r][s] {
								t.Fatalf("%s: Search(%d) reports %d = %v, Compare says %v", label, r, s, found[s], related[r][s])
							}
						}
					}
					tokenBased := simFn == Jaccard || simFn == Dice || simFn == Cosine
					if st := eng.Stats(); tokenBased != (st.SimCounted > 0) {
						t.Errorf("%s: Stats.SimCounted = %d; want > 0 exactly under token-based similarities", label, st.SimCounted)
					}
				}
			}
		}
	}
}
