package dataset_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/tokens"
)

var buildSink *dataset.Collection

// BenchmarkBuildRanges tokenizes a web-table column corpus (3 000 columns,
// a tenth of the benchmark's search_columns) from one range and from
// GOMAXPROCS ranges, each build over a fresh dictionary as NewEngine's is:
// the kernel-level number beside silkbench's setup_s.
func BenchmarkBuildRanges(b *testing.B) {
	raws := datagen.WebTableColumns(datagen.ColumnConfig{NumColumns: 3000, Seed: 1})
	elems := 0
	for _, rs := range raws {
		elems += len(rs.Elements)
	}
	for _, parts := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("ranges=%d", parts), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				buildSink = dataset.BuildRanges(tokens.NewDictionary(), raws, dataset.ModeWord, 0, parts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems), "ns/element")
		})
	}
}

// BenchmarkSaveSnapshot writes the image of a compressed index over the
// same corpus to io.Discard: the encode cost a durable engine pays per
// snapshot, its container blobs copied verbatim.
func BenchmarkSaveSnapshot(b *testing.B) {
	raws := datagen.WebTableColumns(datagen.ColumnConfig{NumColumns: 3000, Seed: 1})
	coll := dataset.Build(tokens.NewDictionary(), raws, dataset.ModeWord, 0)
	snap := &dataset.SnapshotData{Coll: coll, Source: index.BuildCompressed(coll, 0)}
	b.ReportAllocs()
	for range b.N {
		if err := dataset.SaveSnapshot(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
}
