// Benchmarks for the mutable-collection lifecycle: what a Delete costs by
// itself (a tombstone), what a compaction pass costs (index rebuild, then
// marking the ids the live sets use and reclaiming the rest of the
// dictionary), and what queries pay for carrying tombstones versus running
// over a compacted index. Together they are the tuning data for
// Config.CompactionThreshold: deletes are cheap and O(1), compaction is
// O(corpus) but makes search stop paying the dead-posting tax.
// cmd/silkbench's core.delete_ns / core.compact_s track the same costs.
package silkmoth_test

import (
	"context"
	"testing"
	"time"

	"silkmoth"
	"silkmoth/internal/datagen"
)

const mutateBenchSets = 300

func mutateBenchCorpus() []silkmoth.Set {
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: mutateBenchSets, Seed: 17})
	sets := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		sets[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	return sets
}

// mutateBenchConfig disables automatic compaction so each benchmark
// controls exactly when the rebuild happens.
func mutateBenchConfig() silkmoth.Config {
	return silkmoth.Config{
		Metric:              silkmoth.SetSimilarity,
		Similarity:          silkmoth.Jaccard,
		Delta:               0.6,
		CompactionThreshold: -1,
	}
}

func mutateBenchEngine(b *testing.B, sets []silkmoth.Set) *silkmoth.Engine {
	b.Helper()
	eng, err := silkmoth.NewEngine(sets, mutateBenchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkDelete measures one tombstoning delete: the bitmap mark, no
// index or dictionary work. An iteration builds an engine and deletes half
// of its sets. A delete costs a small fraction of the build it needs, so
// the build stays on the clock, which keeps b.N and the wall time small:
// ns/op, B/op and allocs/op are the whole round, mostly the build, and
// ns/delete times the deletes alone.
func BenchmarkDelete(b *testing.B) {
	sets := mutateBenchCorpus()
	b.ReportAllocs()
	var deleting time.Duration
	for i := 0; i < b.N; i++ {
		eng := mutateBenchEngine(b, sets)
		start := time.Now()
		for id := 0; id < len(sets)/2; id++ {
			if err := eng.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
		deleting += time.Since(start)
	}
	b.ReportMetric(float64(deleting.Nanoseconds())/float64(b.N*(len(sets)/2)), "ns/delete")
}

// BenchmarkUpdate measures one atomic replace: tokenize + index the new
// version, tombstone the old.
func BenchmarkUpdate(b *testing.B) {
	sets := mutateBenchCorpus()
	b.ReportAllocs()
	eng := mutateBenchEngine(b, sets)
	id := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newID, err := eng.Update(id, sets[(i+7)%len(sets)])
		if err != nil {
			b.Fatal(err)
		}
		id = newID
	}
}

// BenchmarkCompact measures one full compaction pass over a corpus with a
// quarter of its sets tombstoned: the posting rebuild plus the mark of the
// live sets' ids and the dictionary reclamation.
func BenchmarkCompact(b *testing.B) {
	sets := mutateBenchCorpus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := mutateBenchEngine(b, sets)
		for j := 0; j < len(sets); j += 4 {
			if err := eng.Delete(j); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		eng.Compact()
	}
}

// benchSearchLoop drives the shared query loop of the tombstoned-vs-
// compacted pair.
func benchSearchLoop(b *testing.B, eng *silkmoth.Engine, queries []silkmoth.Set) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchContext(context.Background(), queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchTombstoned measures search cost while a quarter of the
// corpus is deleted but not yet compacted: dead postings still flow
// through candidate generation and are discarded by the liveness check.
func BenchmarkSearchTombstoned(b *testing.B) {
	sets := mutateBenchCorpus()
	eng := mutateBenchEngine(b, sets)
	for j := 0; j < len(sets); j += 4 {
		if err := eng.Delete(j); err != nil {
			b.Fatal(err)
		}
	}
	benchSearchLoop(b, eng, sets[1:33])
}

// BenchmarkSearchCompacted is the same workload after compaction: the
// rebuilt posting lists carry only live sets.
func BenchmarkSearchCompacted(b *testing.B) {
	sets := mutateBenchCorpus()
	eng := mutateBenchEngine(b, sets)
	for j := 0; j < len(sets); j += 4 {
		if err := eng.Delete(j); err != nil {
			b.Fatal(err)
		}
	}
	eng.Compact()
	benchSearchLoop(b, eng, sets[1:33])
}
