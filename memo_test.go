package silkmoth

import (
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
// corpus whose elements come from a pool of 10 strings, Discover and Search
// on one shard and on two must report exactly the pairs whose pairwise
// Compare clears δ — for every similarity function, both metrics and three
// α. Compare runs no filter, so it is the memo-free oracle.
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
				for _, shards := range []int{1, 2} {
					cfg.Shards = shards
					label := fmt.Sprintf("seed=%d %v %v α=%v shards=%d", seed, simFn, metric, alpha, shards)
					eng, err := NewEngine(sets, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := make(map[[2]int]bool)
					for _, p := range eng.Discover() {
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
						ms, err := eng.Search(sets[r])
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
				}
			}
		}
	}
}
