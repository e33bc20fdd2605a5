// Benchmarks for the costs cmd/silkbench does not isolate: what a Delete
// costs by itself (a tombstone), what a compaction pass costs (index
// rebuild, then marking the ids the live sets use and reclaiming the rest
// of the dictionary), and what a durable reopen of a compressed engine
// costs. cmd/silkbench's core.delete_ns, core.compact_s and api.reopen_s
// track the same costs on its workloads; the paper's figures are
// cmd/experiments' (internal/harness).
package silkmoth_test

import (
	"testing"
	"time"

	"silkmoth"
	"silkmoth/internal/datagen"
)

// benchCorpus is a schema-matching corpus of n tables.
func benchCorpus(n int, seed int64) []silkmoth.Set {
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: n, Seed: seed})
	sets := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		sets[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	return sets
}

// benchConfig disables automatic compaction so each benchmark controls
// exactly when the rebuild happens.
func benchConfig() silkmoth.Config {
	return silkmoth.Config{
		Metric:              silkmoth.SetSimilarity,
		Similarity:          silkmoth.Jaccard,
		Delta:               0.6,
		CompactionThreshold: -1,
	}
}

func benchEngine(b *testing.B, sets []silkmoth.Set, cfg silkmoth.Config) *silkmoth.Engine {
	b.Helper()
	eng, err := silkmoth.NewEngine(sets, cfg)
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
	sets := benchCorpus(300, 17)
	b.ReportAllocs()
	var deleting time.Duration
	for i := 0; i < b.N; i++ {
		eng := benchEngine(b, sets, benchConfig())
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

// BenchmarkCompact measures one full compaction pass over a corpus with a
// quarter of its sets tombstoned: the posting rebuild plus the mark of the
// live sets' ids and the dictionary reclamation.
func BenchmarkCompact(b *testing.B) {
	sets := benchCorpus(300, 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := benchEngine(b, sets, benchConfig())
		for j := 0; j < len(sets); j += 4 {
			if err := eng.Delete(j); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		eng.Compact()
	}
}

// BenchmarkColdOpenLazy measures a durable open of a compressed engine:
// the snapshot's container section is mmapped and wrapped without
// decoding, lists decode on first probe, and the collection decode
// dominates.
func BenchmarkColdOpenLazy(b *testing.B) {
	cfg := benchConfig()
	cfg.CompressedPostings = true
	cfg.DataDir = b.TempDir()
	if err := benchEngine(b, benchCorpus(400, 23), cfg).Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchEngine(b, nil, cfg).Close(); err != nil {
			b.Fatal(err)
		}
	}
}
