// Benchmarks for the posting-storage tentpole: the query-side cost of
// compressed containers (heap lists vs adaptive containers behind the decode
// cache) and the cold-open cost of a durable engine (eager posting
// materialization vs the lazy zero-copy load). The postings-section-only
// open comparison lives in internal/index/storage_bench_test.go.
package silkmoth_test

import (
	"context"
	"testing"

	"silkmoth"
	"silkmoth/internal/datagen"
)

func storageBenchCorpus() []silkmoth.Set {
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 400, Seed: 23})
	sets := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		sets[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	return sets
}

func storageBenchConfig(compressed bool) silkmoth.Config {
	return silkmoth.Config{
		Metric:              silkmoth.SetSimilarity,
		Similarity:          silkmoth.Jaccard,
		Delta:               0.6,
		CompactionThreshold: -1,
		CompressedPostings:  compressed,
	}
}

func benchStorageSearch(b *testing.B, compressed bool) {
	sets := storageBenchCorpus()
	eng, err := silkmoth.NewEngine(sets, storageBenchConfig(compressed))
	if err != nil {
		b.Fatal(err)
	}
	queries := sets[1:33]
	// Warm once so the compressed run measures steady state (cache-hit
	// probes), not first-touch decodes.
	for _, q := range queries {
		if _, err := eng.SearchContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchContext(context.Background(), queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchHeapPostings is the baseline: queries over materialized
// heap posting lists.
func BenchmarkSearchHeapPostings(b *testing.B) { benchStorageSearch(b, false) }

// BenchmarkSearchCompressedPostings is the same workload over adaptive
// compressed containers with the default decode-cache budget: steady-state
// probes hit the cache and stay zero-copy.
func BenchmarkSearchCompressedPostings(b *testing.B) { benchStorageSearch(b, true) }

func benchStorageColdOpen(b *testing.B, compressed bool) {
	sets := storageBenchCorpus()
	cfg := storageBenchConfig(compressed)
	cfg.DataDir = b.TempDir()
	eng, err := silkmoth.NewEngine(sets, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := silkmoth.NewEngine(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := loaded.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdOpenEager measures a full durable open of the uncompressed
// engine: collection decode plus one materialized posting list per
// vocabulary token.
func BenchmarkColdOpenEager(b *testing.B) { benchStorageColdOpen(b, false) }

// BenchmarkColdOpenLazy is the same open with compressed postings: the
// snapshot's container section is mmapped and wrapped without decoding;
// lists decode on first probe. Collection decode still dominates the
// absolute number — the isolated postings-section ratio is in
// internal/index BenchmarkSnapshotOpenPostings{Eager,Lazy}.
func BenchmarkColdOpenLazy(b *testing.B) { benchStorageColdOpen(b, true) }
