package shard

import (
	"context"
	"runtime"
	"testing"

	"silkmoth/internal/core"
	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
)

// The sharded-vs-serial benchmark pairs. On a single-core container the
// sharded numbers track the serial ones (scatter-gather adds only goroutine
// overhead), with the speedup appearing as cores do.

const benchTables = 300

func benchColl(b *testing.B) *dataset.Collection {
	b.Helper()
	return wordColl(datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: benchTables, Seed: 11}))
}

func benchOpts() core.Options {
	return jaccardOpts(runtime.GOMAXPROCS(0))
}

func BenchmarkSerialDiscover(b *testing.B) {
	coll := benchColl(b)
	eng, err := core.NewEngine(coll, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps, err := eng.DiscoverContext(context.Background(), coll); err != nil || len(ps) == 0 {
			b.Fatalf("pairs=%d err=%v", len(ps), err)
		}
	}
}

func BenchmarkShardedDiscover(b *testing.B) {
	coll := benchColl(b)
	eng, err := New(coll, 4, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps, err := eng.DiscoverContext(context.Background(), eng.Collection()); err != nil || len(ps) == 0 {
			b.Fatalf("pairs=%d err=%v", len(ps), err)
		}
	}
}

// benchRefs uses the first 64 collection sets as the query batch.
func benchRefs(coll *dataset.Collection) []*dataset.Set {
	refs := make([]*dataset.Set, 64)
	for i := range refs {
		refs[i] = &coll.Sets[i]
	}
	return refs
}

func BenchmarkSerialSearchLoop(b *testing.B) {
	coll := benchColl(b)
	eng, err := core.NewEngine(coll, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	refs := benchRefs(coll)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range refs {
			if _, err := eng.SearchContext(context.Background(), r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSearchBatch(b *testing.B) {
	coll := benchColl(b)
	eng, err := New(coll, 4, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	refs := benchRefs(coll)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchBatchContext(context.Background(), refs); err != nil {
			b.Fatal(err)
		}
	}
}
