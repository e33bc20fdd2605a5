package silkmoth

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"silkmoth/internal/core"
)

// shardedCorpus builds a small corpus with planted near-duplicates so
// every query mode has non-trivial answers.
func shardedCorpus(n int) []Set {
	sets := make([]Set, 0, n*2)
	for i := 0; i < n; i++ {
		base := Set{Name: fmt.Sprintf("s%d", i), Elements: []string{
			fmt.Sprintf("alpha%d beta%d gamma", i, i%7),
			fmt.Sprintf("delta%d epsilon", i%5),
			"zeta eta theta",
		}}
		sets = append(sets, base)
		if i%3 == 0 {
			dup := Set{Name: base.Name + "dup", Elements: []string{
				base.Elements[0],
				base.Elements[1],
				"zeta eta iota", // one perturbed element
			}}
			sets = append(sets, dup)
		}
	}
	return sets
}

// TestShardedPublicEquivalence pins the public wrapper's searches at width
// 3, every one forced to split, to width 1's across every query mode,
// including after Add. Shards() reports the width, GOMAXPROCS by default.
func TestShardedPublicEquivalence(t *testing.T) {
	defer core.ForceSplitForTest()()
	sets := shardedCorpus(30) // 30 base + 10 planted dups = 40 sets
	cut := 28
	cfg := Config{Metric: SetSimilarity, Similarity: Jaccard, Delta: 0.5, Concurrency: 2}
	byDefault, err := NewEngine(sets[:cut], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := byDefault.Shards(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Shards() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	cfg.Shards = 1
	plain, err := NewEngine(sets[:cut], cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgSharded := cfg
	cfgSharded.Shards = 3
	sharded, err := NewEngine(sets[:cut], cfgSharded)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Shards() != 1 || sharded.Shards() != 3 {
		t.Fatalf("Shards() = %d / %d, want 1 / 3", plain.Shards(), sharded.Shards())
	}

	// Both engines grow identically after construction.
	plain.Add(sets[cut:])
	sharded.Add(sets[cut:])
	if plain.Len() != len(sets) || sharded.Len() != len(sets) {
		t.Fatalf("Len after Add: plain %d, sharded %d, want %d", plain.Len(), sharded.Len(), len(sets))
	}

	checkMatches := func(what string, a, b []Match) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: plain %d matches, sharded %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: match %d plain %+v, sharded %+v", what, i, a[i], b[i])
			}
		}
	}

	query := Set{Elements: sets[3].Elements}
	mp, err := plain.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	msh, err := sharded.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp) == 0 {
		t.Fatal("query found nothing; corpus too sparse for the test")
	}
	checkMatches("search", mp, msh)

	kp, err := plain.SearchTopK(query, 3)
	if err != nil {
		t.Fatal(err)
	}
	ksh, err := sharded.SearchTopK(query, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches("topk", kp, ksh)

	pp := plain.Discover()
	psh := sharded.Discover()
	if len(pp) == 0 {
		t.Fatal("discover found nothing; corpus too sparse for the test")
	}
	if len(pp) != len(psh) {
		t.Fatalf("discover: plain %d pairs, sharded %d", len(pp), len(psh))
	}
	for i := range pp {
		if pp[i] != psh[i] {
			t.Fatalf("discover pair %d: plain %+v, sharded %+v", i, pp[i], psh[i])
		}
	}

	refs := []Set{query, {Elements: sets[7].Elements}}
	dp, err := plain.DiscoverAgainst(refs)
	if err != nil {
		t.Fatal(err)
	}
	dsh, err := sharded.DiscoverAgainst(refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(dp) != len(dsh) {
		t.Fatalf("discover-against: plain %d pairs, sharded %d", len(dp), len(dsh))
	}
	for i := range dp {
		if dp[i] != dsh[i] {
			t.Fatalf("discover-against pair %d: plain %+v, sharded %+v", i, dp[i], dsh[i])
		}
	}

	if st := sharded.Stats(); st.SearchPasses == 0 || st.Verified == 0 || st.SplitPasses == 0 {
		t.Fatalf("sharded stats not aggregated: %+v", st)
	}
}

// TestSearchBatchPublic pins SearchBatchQueries to per-query Search on both
// engine shapes.
func TestSearchBatchPublic(t *testing.T) {
	sets := shardedCorpus(20)
	for _, shards := range []int{0, 3} {
		cfg := Config{Metric: SetSimilarity, Similarity: Jaccard, Delta: 0.5, Concurrency: 2, Shards: shards}
		eng, err := NewEngine(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refs := []Set{
			{Elements: sets[0].Elements},
			{Elements: sets[9].Elements},
			{Elements: []string{"nothing like this corpus"}},
		}
		queries := make([]BatchQuery, len(refs))
		for i, ref := range refs {
			queries[i].Set = ref
		}
		batch, err := eng.SearchBatchQueries(queries)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(refs) {
			t.Fatalf("shards=%d: %d results for %d refs", shards, len(batch), len(refs))
		}
		some := false
		for i, ref := range refs {
			want, err := eng.Search(ref)
			if err != nil {
				t.Fatal(err)
			}
			got := batch[i].Matches
			if len(got) != len(want) {
				t.Fatalf("shards=%d ref %d: batch %d matches, search %d", shards, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("shards=%d ref %d match %d: batch %+v, search %+v", shards, i, j, got[j], want[j])
				}
			}
			some = some || len(want) > 0
		}
		if !some {
			t.Fatal("no batch query matched; corpus too sparse for the test")
		}
		if out, err := eng.SearchBatchQueries(nil); err != nil || out != nil {
			t.Fatalf("empty batch = %v, %v", out, err)
		}
	}
}

// TestShardedSaveLoad round-trips a collection through SaveCollection and
// rebuilds it sharded.
func TestShardedSaveLoad(t *testing.T) {
	sets := shardedCorpus(12)
	cfg := Config{Metric: SetSimilarity, Similarity: Jaccard, Delta: 0.5, Shards: 2}
	eng, err := NewEngine(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveCollection(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewEngineFromSaved(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 2 || loaded.Len() != eng.Len() {
		t.Fatalf("loaded: shards=%d len=%d, want 2, %d", loaded.Shards(), loaded.Len(), eng.Len())
	}
	want := eng.Discover()
	got := loaded.Discover()
	if len(want) != len(got) {
		t.Fatalf("discover: %d pairs before save, %d after", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pair %d: %+v before save, %+v after", i, want[i], got[i])
		}
	}

	// Compare must keep working when handed a sharded config.
	rel, err := Compare(sets[0], sets[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	relPlain, err := Compare(sets[0], sets[1], Config{Metric: SetSimilarity, Similarity: Jaccard, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rel != relPlain {
		t.Fatalf("Compare diverges under a sharded config: %g vs %g", rel, relPlain)
	}
}
