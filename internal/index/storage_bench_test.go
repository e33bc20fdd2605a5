// Benchmarks for the posting-storage layer: what opening a snapshot's
// postings section costs eagerly (decode every container into heap lists,
// the uncompressed engine's load) versus lazily (wrap the container bytes,
// decode on first probe), and what compressed probes cost hot and cold.
package index

import (
	"bytes"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
)

// storageBenchSnap builds a long-tail corpus (each tail token in a handful
// of sets, a few dense tokens), snapshots it, and re-parses the image once
// so each benchmark iteration pays only the postings-section work.
func storageBenchSnap(b *testing.B) *dataset.SnapshotData {
	b.Helper()
	coll, _ := synthCorpusVocab(3000, 1500, 11)
	var buf bytes.Buffer
	if err := dataset.SaveSnapshot(&buf, &dataset.SnapshotData{Coll: coll, Source: Build(coll)}); err != nil {
		b.Fatal(err)
	}
	snap, err := dataset.LoadSnapshotBytes(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	if snap.Containers == nil {
		b.Fatal("snapshot carries no containers")
	}
	return snap
}

// TestStorageFootprintReport logs the posting-section footprint of the
// benchmark corpora (run with -v).
func TestStorageFootprintReport(t *testing.T) {
	for _, tc := range []struct {
		name        string
		sets, vocab int
		seed        int64
	}{
		{"ratio-corpus", 400, 200, 2},
		{"bench-corpus", 3000, 1500, 11},
	} {
		coll, _ := synthCorpusVocab(tc.sets, tc.vocab, tc.seed)
		st := BuildCompressed(coll, 0).Storage()
		raw := int64(st.Postings) * postingBytes
		t.Logf("%s: %d postings over %d tokens: raw %d B, encoded %d B (%.2fx)",
			tc.name, st.Postings, coll.Dict.Size(), raw, st.EncodedBytes,
			float64(raw)/float64(st.EncodedBytes))
	}
}

// BenchmarkSnapshotOpenPostingsEager is the uncompressed load: every
// container decoded into a heap list before the first query can run.
func BenchmarkSnapshotOpenPostingsEager(b *testing.B) {
	snap := storageBenchSnap(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lists, err := snap.DecodePostings()
		if err != nil {
			b.Fatal(err)
		}
		_ = FromLists(snap.Coll, lists)
	}
}

// BenchmarkSnapshotOpenPostingsLazy is the zero-copy load: wrap the encoded
// containers and return; decode happens per probed token later.
func BenchmarkSnapshotOpenPostingsLazy(b *testing.B) {
	snap := storageBenchSnap(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromContainers(snap.Coll, snap.Containers, true, 0)
	}
}

// BenchmarkCompressedProbeHot is a cache-hit List on a compressed index —
// the steady-state probe cost queries pay after the working set warms.
func BenchmarkCompressedProbeHot(b *testing.B) {
	coll, dict := synthCorpus(200, 12)
	cx := BuildCompressed(coll, 0)
	id, _ := dict.Lookup("mid0")
	_ = cx.List(id) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cx.List(id)
	}
}

// BenchmarkCompressedCursorStream walks the densest list through the
// streaming cursor (budget 1 disables materialization) — the cold-scan cost
// of a long-tail list too big to be worth caching.
func BenchmarkCompressedCursorStream(b *testing.B) {
	coll, dict := synthCorpus(200, 12)
	cx := BuildCompressed(coll, 1)
	id, _ := dict.Lookup("common")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := cx.Cursor(id)
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
	}
}

// BenchmarkHeapCursorScan is BenchmarkCompressedCursorStream's baseline: the
// same walk over the heap index's materialized list.
func BenchmarkHeapCursorScan(b *testing.B) {
	coll, dict := synthCorpus(200, 12)
	ix := Build(coll)
	id, _ := dict.Lookup("common")
	var tid tokens.ID = id
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := ix.Cursor(tid)
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
	}
}
