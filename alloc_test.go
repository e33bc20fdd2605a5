package silkmoth

import (
	"context"
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
// serial SearchContext steady-states at 6 objects, so the budget is the
// measured cost plus headroom for runtime noise, not a round hundred.
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
// SearchContext, SearchTopKContext, DiscoverContext, SearchBatchQueriesContext,
// and DiscoverAgainstContext paths on one shard and on several, so the
// pipeline's zero-allocation property cannot silently regress — and, the
// shards=1 budgets carrying no fan-out allowance, so one shard cannot start
// paying for a split. DiscoverContext, a many-item SearchBatchQueriesContext
// and DiscoverAgainstContext do not split, so they carry none at any shard
// count.
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
		// per-range match lists and their merge (9 objects for SearchContext,
		// 12 for SearchTopKContext, measured at three ranges; the allowance
		// doubles the larger).
		extra := 0.0
		if shards > 1 {
			extra = 24
		}
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			measureAllocs(t, "Search", searchAllocBudget+extra, func() {
				if _, err := eng.SearchContext(context.Background(), ref); err != nil {
					t.Fatal(err)
				}
			})
			measureAllocs(t, "SearchTopK", topKAllocBudget+extra, func() {
				if _, err := eng.SearchTopKContext(context.Background(), ref, 5); err != nil {
					t.Fatal(err)
				}
			})
			measureAllocs(t, "Discover", discoverAllocBudget, func() {
				mustDiscover(t, eng)
			})
			measureAllocs(t, "SearchBatchQueries", batchAllocBudget, func() {
				if _, err := eng.SearchBatchQueriesContext(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
			})
			measureAllocs(t, "DiscoverAgainst", discoverAgainstAllocBudget, func() {
				if _, err := eng.DiscoverAgainstContext(context.Background(), against); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// Compare allocation budgets for one 50×60 pair. Compare tokenizes both
// sets into one fresh dictionary and scores them with one matching — no
// engine, index or element directory — so what it allocates is the two
// sets' tokenization — the dictionary's arena, spans and index growing,
// with no string per token or key — plus one matching's scratch, a
// constant for a fixed pair: 110 measured under Jaccard, 107 under Eds,
// where building an engine cost 303 and 156. The budgets are the measured
// cost plus headroom for runtime noise, and below the engine's.
const (
	compareJaccardAllocBudget = 125
	compareEdsAllocBudget     = 120
)

// TestCompareAllocGate pins what one Compare allocates, under a word and
// an edit similarity, so that building an engine per call (its dictionary,
// inverted index and element directory over s) cannot come back unseen.
func TestCompareAllocGate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	sets := allocCorpus(40)
	var r, s Set
	for _, x := range sets {
		r.Elements = append(r.Elements, x.Elements...)
	}
	r.Elements, s.Elements = r.Elements[:50], r.Elements[50:110]
	for _, tc := range []struct {
		sim    Similarity
		budget float64
	}{{Jaccard, compareJaccardAllocBudget}, {Eds, compareEdsAllocBudget}} {
		cfg := Config{Similarity: tc.sim, Delta: 0.5}
		measureAllocs(t, fmt.Sprintf("Compare/%v", tc.sim), tc.budget, func() {
			if _, err := Compare(r, s, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}
