package silkmoth

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"silkmoth/internal/raceflag"
)

// TestCompressedEngineDifferentialGrid pins the tentpole's exactness
// contract: an engine over compressed posting containers must be
// indistinguishable from the uncompressed engine across the full
// metric × similarity × α × shard grid — through mutations, a zero-copy
// (mmap) snapshot reload with tombstones standing, WAL replay over the
// mapped image, and compaction. Scores, orderings, and explain funnels all
// have to match, not merely the answer sets.
func TestCompressedEngineDifferentialGrid(t *testing.T) {
	corpus := durableCorpus()
	type simCase struct {
		sim    Similarity
		alphas []float64
	}
	sims := []simCase{
		{Jaccard, []float64{0, 0.4}},
		{Dice, []float64{0}},
		{Cosine, []float64{0}},
		{Eds, []float64{0, 0.4}},
		{NEds, []float64{0.4}},
	}
	for _, metric := range []Metric{SetSimilarity, SetContainment} {
		for _, sc := range sims {
			for _, alpha := range sc.alphas {
				for _, shards := range []int{1, 2, 7} {
					t.Run(fmt.Sprintf("%v/%v/alpha=%v/shards=%d", metric, sc.sim, alpha, shards), func(t *testing.T) {
						base := Config{
							Metric:              metric,
							Similarity:          sc.sim,
							Delta:               0.5,
							Alpha:               alpha,
							Shards:              shards,
							CompactionThreshold: -1, // explicit Compact below
						}
						ref, err := NewEngine(corpus, base) // uncompressed reference
						if err != nil {
							t.Fatal(err)
						}
						ccfg := base
						ccfg.CompressedPostings = true
						ccfg.PostingCacheBytes = 4 << 10 // tiny: force eviction + streaming
						ccfg.DataDir = t.TempDir()
						ceng, err := NewEngine(corpus, ccfg)
						if err != nil {
							t.Fatal(err)
						}

						mutate := func(e *Engine) {
							t.Helper()
							if err := e.Delete(1); err != nil {
								t.Fatal(err)
							}
							if _, err := e.Update(3, Set{Name: "D+v2", Elements: []string{"Lake Shore Dr Chicago", "5th Ave"}}); err != nil {
								t.Fatal(err)
							}
							if err := e.Add([]Set{{Name: "I", Elements: []string{"Mass Ave", "Lake St Boston"}}}); err != nil {
								t.Fatal(err)
							}
						}
						mutate(ref)
						mutate(ceng)
						compareEngineSurfaces(t, "mutated", ref, ceng, true)
						if st := ceng.Stats(); !st.CompressedPostings || st.PostingEncodedBytes == 0 {
							t.Fatalf("compressed engine stats %+v, want compressed storage", st)
						}

						// Zero-copy reload with tombstones standing. Funnels
						// are not compared: the snapshot persists a compacted
						// image while the writers still probe dead postings.
						if err := ceng.Snapshot(); err != nil {
							t.Fatal(err)
						}
						if err := ceng.Close(); err != nil {
							t.Fatal(err)
						}
						loaded, err := NewEngine(nil, ccfg)
						if err != nil {
							t.Fatal(err)
						}
						st := loaded.Stats()
						if !st.RecoveredSnapshot || !st.CompressedPostings {
							t.Fatalf("reload stats %+v, want a compressed snapshot recovery", st)
						}
						if shards == 1 {
							if runtime.GOOS == "linux" && !st.SnapshotMapped {
								t.Fatal("unsharded compressed reload did not mmap the snapshot")
							}
							if st.PostingCacheMisses != 0 {
								t.Fatalf("reload decoded %d lists before any query", st.PostingCacheMisses)
							}
						}
						compareEngineSurfaces(t, "reloaded", ref, loaded, false)

						// Mutate the mapped engine so reopening replays the
						// WAL over a zero-copy load.
						extra := Set{Name: "J", Elements: []string{"77 Mass Ave Boston", "5th St"}}
						if err := ref.Add([]Set{extra}); err != nil {
							t.Fatal(err)
						}
						if err := loaded.Add([]Set{extra}); err != nil {
							t.Fatal(err)
						}
						compareEngineSurfaces(t, "mapped-mutated", ref, loaded, false)
						if err := loaded.Close(); err != nil {
							t.Fatal(err)
						}
						replayed, err := NewEngine(nil, ccfg)
						if err != nil {
							t.Fatal(err)
						}
						defer replayed.Close()
						if st := replayed.Stats(); st.WALReplayed == 0 {
							t.Fatalf("reopen stats %+v, want WAL replay over the snapshot", st)
						}
						compareEngineSurfaces(t, "wal-replayed", ref, replayed, false)

						// Compacted state: funnels must match again.
						ref.Compact()
						replayed.Compact()
						compareEngineSurfaces(t, "compacted", ref, replayed, true)
						if err := replayed.Snapshot(); err != nil {
							t.Fatal(err)
						}
						final, err := NewEngine(nil, ccfg)
						if err != nil {
							t.Fatal(err)
						}
						defer final.Close()
						compareEngineSurfaces(t, "compacted-reloaded", ref, final, true)
					})
				}
			}
		}
	}
}

// bigVocabCorpus is allocCorpus with a vocabulary that dwarfs the
// collection: ~6000 distinct words over 300 sets, so an eager snapshot load
// — which materializes one posting list per vocabulary token — allocates
// thousands of objects that a lazy load must not.
func bigVocabCorpus(n int) []Set {
	rng := rand.New(rand.NewSource(99))
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
				s += fmt.Sprintf("word%04d", rng.Intn(6000))
			}
			elems[j] = s
		}
		sets[i] = Set{Name: fmt.Sprintf("S%d", i), Elements: elems}
	}
	return sets
}

// TestCompressedLazyLoadAllocationBudget pins satellite property of the
// zero-copy load: opening a compressed snapshot allocates O(probed tokens),
// not O(vocabulary). The eager (uncompressed) load materializes every
// posting list up front; the lazy load must sit far below it, decode nothing
// until the first query, and then decode at most the tokens that query
// probed.
func TestCompressedLazyLoadAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	sets := bigVocabCorpus(300)
	eagerCfg := Config{Similarity: Jaccard, Delta: 0.5, DataDir: t.TempDir()}
	lazyCfg := Config{Similarity: Jaccard, Delta: 0.5, DataDir: t.TempDir(), CompressedPostings: true}
	for _, cfg := range []Config{eagerCfg, lazyCfg} {
		eng, err := NewEngine(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}

	open := func(cfg Config) func() {
		return func() {
			loaded, err := NewEngine(nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !loaded.Stats().RecoveredSnapshot {
				t.Fatal("load fell back to a heap build")
			}
			loaded.Close()
		}
	}
	eagerAllocs := testing.AllocsPerRun(5, open(eagerCfg))
	lazyAllocs := testing.AllocsPerRun(5, open(lazyCfg))
	// Both loads decode the collection (O(corpus), unavoidable); what the
	// lazy load must NOT do is materialize one posting list per vocabulary
	// token on top. The allocation gap between the two loads is exactly
	// that per-token work, so it must scale with the vocabulary.
	vocab := map[string]struct{}{}
	for _, s := range sets {
		for _, e := range s.Elements {
			for _, w := range strings.Fields(e) {
				vocab[w] = struct{}{}
			}
		}
	}
	t.Logf("lazy load: %.0f allocs, eager load: %.0f, vocabulary: %d tokens",
		lazyAllocs, eagerAllocs, len(vocab))
	if eagerAllocs-lazyAllocs < float64(len(vocab))/2 {
		t.Errorf("lazy load allocates %.0f vs %.0f eager over a %d-token vocabulary — the lazy path is still doing per-vocabulary work",
			lazyAllocs, eagerAllocs, len(vocab))
	}

	// Decode work is demand-driven: none at open, bounded by the probed
	// signature tokens after one query.
	loaded, err := NewEngine(nil, lazyCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if st := loaded.Stats(); st.PostingCacheMisses != 0 || st.PostingResidentBytes != 0 {
		t.Fatalf("open decoded lists before any query: %+v", st)
	}
	var ex Explain
	if _, err := loaded.Search(sets[7], WithExplain(&ex)); err != nil {
		t.Fatal(err)
	}
	st := loaded.Stats()
	if st.PostingCacheMisses == 0 {
		t.Fatal("query decoded nothing — probes are not reaching the containers")
	}
	if st.PostingCacheMisses > int64(ex.SigTokens) {
		t.Errorf("one query decoded %d lists but probed only %d signature tokens — decode is not demand-driven",
			st.PostingCacheMisses, ex.SigTokens)
	}
}

// TestCompressedSteadyStateSearchAllocs holds the compressed engine to the
// same steady-state search budget as the heap engine: once the cache holds
// the query's working set, probes are zero-copy and allocation-free.
func TestCompressedSteadyStateSearchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	sets := allocCorpus(300)
	eng, err := NewEngine(sets, Config{
		Similarity:         Jaccard,
		Delta:              0.5,
		Alpha:              0.3,
		CompressedPostings: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := sets[7]
	measureAllocs(t, "Search(compressed)", searchAllocBudget, func() {
		if _, err := eng.Search(ref); err != nil {
			t.Fatal(err)
		}
	})
}
