package silkmoth

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// TestBuildWidthDoesNotShow builds one set list at widths 1 and 7, word and
// q-gram, and requires the same answers, the same posting storage and
// byte-identical initial snapshots in the data directory: NewEngine
// tokenizes from as many set-id ranges as its width, and the ranges' merge
// must leave every token id where a one-range build puts it.
func TestBuildWidthDoesNotShow(t *testing.T) {
	ctx := context.Background()
	sets := append(shardedCorpus(40),
		Set{Name: "blank", Elements: []string{"", " "}},
		Set{Name: "none"},
		Set{Name: "repeat", Elements: []string{"zeta zeta eta", "théta　iota"}},
	)
	query := Set{Name: "q", Elements: []string{"alpha3 beta3 gamma", "zeta eta theta", "unseen words"}}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"word", Config{Metric: SetSimilarity, Similarity: Jaccard, Delta: 0.5}},
		{"qgram", Config{Metric: SetContainment, Similarity: Eds, Delta: 0.6, Alpha: 0.7, CompressedPostings: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			type built struct {
				storage PostingStorage
				snap    []byte
				pairs   []Pair
				matches []Match
			}
			var at []built
			for _, width := range []int{1, 7} {
				cfg := c.cfg
				cfg.Shards, cfg.DataDir = width, t.TempDir()
				eng, err := NewEngine(sets, cfg)
				if err != nil {
					t.Fatal(err)
				}
				b := built{storage: eng.Stats().PostingStorage, snap: newestSnapshot(t, cfg.DataDir)}
				if b.pairs, err = eng.DiscoverContext(ctx); err != nil {
					t.Fatal(err)
				}
				if b.matches, err = eng.SearchContext(ctx, query); err != nil {
					t.Fatal(err)
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				at = append(at, b)
			}
			one, seven := at[0], at[1]
			if len(one.pairs) == 0 || len(one.matches) == 0 {
				t.Fatalf("width 1 found %d pairs and %d matches; the check needs some", len(one.pairs), len(one.matches))
			}
			if !reflect.DeepEqual(seven.pairs, one.pairs) || !reflect.DeepEqual(seven.matches, one.matches) {
				t.Errorf("width 7 answers %v / %v, width 1 %v / %v", seven.pairs, seven.matches, one.pairs, one.matches)
			}
			if seven.storage != one.storage {
				t.Errorf("width 7 posting storage %+v, width 1 %+v", seven.storage, one.storage)
			}
			if !bytes.Equal(seven.snap, one.snap) {
				t.Errorf("width 7 initial snapshot differs from width 1's (%d vs %d bytes)", len(seven.snap), len(one.snap))
			}
		})
	}
}
