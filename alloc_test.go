package silkmoth

import (
	"fmt"
	"math/rand"
	"testing"

	"silkmoth/internal/raceflag"
)

// allocCorpus builds a corpus large enough that queries touch many
// candidates: a per-candidate or per-pair allocation regression multiplies
// into hundreds of objects per query and trips the budgets immediately,
// while the fixed per-query costs (tokenizing the query against the shared
// dictionary, assembling the public result slice) stay constant.
func allocCorpus(n int) []Set {
	rng := rand.New(rand.NewSource(4242))
	sets := make([]Set, n)
	for i := range sets {
		ne := 3 + rng.Intn(5)
		elems := make([]string, ne)
		for j := range elems {
			k := 2 + rng.Intn(4)
			s := ""
			for w := 0; w < k; w++ {
				if w > 0 {
					s += " "
				}
				s += fmt.Sprintf("word%03d", rng.Intn(120))
			}
			elems[j] = s
		}
		sets[i] = Set{Name: fmt.Sprintf("S%d", i), Elements: elems}
	}
	return sets
}

// Steady-state allocation budgets per public query. These are deliberately
// fixed absolute numbers, not ratios: the hot path owns reusable scratch
// for everything proportional to collection size, candidate count, or pair
// count, so what remains is query tokenization plus result assembly — a
// constant for a fixed query. If a budget trips, a per-candidate or
// per-pair allocation crept back into the pipeline; find it with
// `go test -bench BenchmarkPipeline -benchmem ./internal/core`.
// The single-query budgets dropped from 100/110 to low double digits when
// query tokenization moved onto pooled scratch (dataset.QueryScratch): a
// serial Search steady-states at 6 objects, so the budget is the measured
// cost plus headroom for runtime noise, not a round hundred.
const (
	searchAllocBudget   = 12
	topKAllocBudget     = 16
	discoverAllocBudget = 400 // whole self-join (300 passes), not one query
)

// Multi-reference calls: per-worker searchers, the result slices, and one
// match list per reference that has matches.
const (
	batchAllocBudget           = 80 // 16 references in one call (57 measured)
	discoverAgainstAllocBudget = 32 // 4 references in one call (20 measured)
)

func measureAllocs(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	f() // warm scratch arenas and pools
	f()
	got := testing.AllocsPerRun(50, f)
	if got > budget {
		t.Errorf("%s allocates %.1f objects steady-state, budget %.0f", name, got, budget)
	}
	t.Logf("%s: %.1f allocs (budget %.0f)", name, got, budget)
}

// TestQueryAllocationBudgets pins steady-state allocations of the public
// Search, SearchTopK, Discover, SearchBatchQueries, and DiscoverAgainst
// paths on one shard and on several, so the pipeline's zero-allocation
// property cannot silently regress — and, the shards=1 budgets carrying no
// fan-out allowance, so one shard cannot start paying for a split. Discover,
// a many-item SearchBatchQueries and DiscoverAgainst do not split, so they
// carry none at any shard count.
func TestQueryAllocationBudgets(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	sets := allocCorpus(300)
	ref := sets[7]
	batch := make([]BatchQuery, 16)
	for i := range batch {
		batch[i].Set = sets[20+i]
	}
	against := sets[40:44]
	for _, shards := range []int{1, 3} {
		eng, err := NewEngine(sets, Config{
			Similarity:  Jaccard,
			Delta:       0.5,
			Alpha:       0.3,
			Shards:      shards,
			StageSample: 1, // stage timing on every pass — must ride for free
		})
		if err != nil {
			t.Fatal(err)
		}
		// A split search pays a fixed per-query fan-out cost: a goroutine
		// per range and a borrowed searcher per extra one, plus the
		// per-range match lists and their merge (9 objects for Search, 12
		// for SearchTopK, measured at three ranges; the allowance doubles
		// the larger).
		extra := 0.0
		if shards > 1 {
			extra = 24
		}
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			measureAllocs(t, "Search", searchAllocBudget+extra, func() {
				if _, err := eng.Search(ref); err != nil {
					t.Fatal(err)
				}
			})
			measureAllocs(t, "SearchTopK", topKAllocBudget+extra, func() {
				if _, err := eng.SearchTopK(ref, 5); err != nil {
					t.Fatal(err)
				}
			})
			measureAllocs(t, "Discover", discoverAllocBudget, func() {
				eng.Discover()
			})
			measureAllocs(t, "SearchBatchQueries", batchAllocBudget, func() {
				if _, err := eng.SearchBatchQueries(batch); err != nil {
					t.Fatal(err)
				}
			})
			measureAllocs(t, "DiscoverAgainst", discoverAgainstAllocBudget, func() {
				if _, err := eng.DiscoverAgainst(against); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
