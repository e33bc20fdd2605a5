package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
)

// synthCorpus builds a deterministic word-mode collection shaped to exercise
// every container kind: a token in every element (dense → bitmap), a handful
// of mid-frequency tokens (packed), and a long tail of rare ones (array).
func synthCorpus(nSets int, seed int64) (*dataset.Collection, *tokens.Dictionary) {
	return synthCorpusVocab(nSets, nSets*6, seed)
}

// synthCorpusVocab is synthCorpus with an explicit rare-token vocabulary
// size: nSets*6 makes most rare lists singletons (worst case for the
// encoder), nSets/2 gives the zipf-ish long tail real corpora show, where
// each tail token still lands in a handful of sets.
func synthCorpusVocab(nSets, rareVocab int, seed int64) (*dataset.Collection, *tokens.Dictionary) {
	rng := rand.New(rand.NewSource(seed))
	raws := make([]dataset.RawSet, nSets)
	for i := range raws {
		ne := 1 + rng.Intn(3)
		elems := make([]string, ne)
		for j := range elems {
			var b bytes.Buffer
			b.WriteString("common") // in every element
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, " mid%d", rng.Intn(4))
			}
			for w := 0; w < 1+rng.Intn(4); w++ {
				fmt.Fprintf(&b, " rare%d", rng.Intn(rareVocab))
			}
			elems[j] = b.String()
		}
		raws[i] = dataset.RawSet{Name: fmt.Sprintf("s%d", i), Elements: elems}
	}
	dict := tokens.NewDictionary()
	return dataset.BuildWord(dict, raws), dict
}

// requireSameIndex asserts got answers every read entry point — ListLen,
// List, Cursor, Cursor.Cut, SetRange, SetRangeInto, TotalPostings —
// identically to want,
// and that both indexes' element directories are what their collection says
// (CheckDirectory), whatever sequence of Build, AppendSets and Rebuild made
// them.
func requireSameIndex(t *testing.T, stage string, want, got *Inverted) {
	t.Helper()
	for _, ix := range []*Inverted{want, got} {
		if err := ix.CheckDirectory(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if st := ix.Storage(); st.DirectoryBytes < 8*int64(len(ix.dir.ents)) || len(ix.dir.ents) == 0 {
			t.Fatalf("%s: Storage reports %d directory bytes for %d elements", stage, st.DirectoryBytes, len(ix.dir.ents))
		}
	}
	nt := want.NumTokens()
	if g := got.NumTokens(); g > nt {
		nt = g
	}
	numSets := int32(len(want.Collection().Sets))
	var scratch []Posting
	for tid := 0; tid < nt+1; tid++ {
		id := tokens.ID(tid)
		wl := want.List(id)
		if gn := got.ListLen(id); gn != len(wl) {
			t.Fatalf("%s: token %d: ListLen = %d, want %d", stage, tid, gn, len(wl))
		}
		gl := got.List(id)
		if len(gl) != len(wl) {
			t.Fatalf("%s: token %d: List len %d, want %d", stage, tid, len(gl), len(wl))
		}
		for i := range wl {
			if gl[i] != wl[i] {
				t.Fatalf("%s: token %d posting %d = %+v, want %+v", stage, tid, i, gl[i], wl[i])
			}
		}
		cur := got.Cursor(id)
		for i := 0; ; i++ {
			p, ok := cur.Next()
			if !ok {
				if i != len(wl) {
					t.Fatalf("%s: token %d: cursor ended at %d, want %d", stage, tid, i, len(wl))
				}
				break
			}
			if i >= len(wl) || p != wl[i] {
				t.Fatalf("%s: token %d: cursor posting %d = %+v", stage, tid, i, p)
			}
		}
		// Each range both cut from a fresh cursor and taken, in order, from
		// one cursor that Take moves on.
		taken := got.Cursor(id)
		for k := 0; k < 6; k++ {
			lo, hi := Range(k/2, 3, int(numSets)+1)
			cur := got.Cursor(id)
			cur.Cut(int32(lo), int32(hi))
			if k%2 == 1 {
				cur = taken.Take(int32(lo), int32(hi))
			}
			i := 0
			for _, w := range wl {
				if w.Set < int32(lo) || w.Set >= int32(hi) {
					continue
				}
				if p, ok := cur.Next(); !ok || p != w {
					t.Fatalf("%s: token %d: range [%d, %d) cursor %d posting %d = %+v, %v; want %+v", stage, tid, lo, hi, k%2, i, p, ok, w)
				}
				i++
			}
			if p, ok := cur.Next(); ok {
				t.Fatalf("%s: token %d: range [%d, %d) cursor %d runs on to %+v", stage, tid, lo, hi, k%2, p)
			}
		}
		for set := int32(0); set <= numSets; set++ {
			wr := want.SetRange(id, set)
			gr := got.SetRange(id, set)
			if len(gr) != len(wr) {
				t.Fatalf("%s: token %d set %d: SetRange len %d, want %d", stage, tid, set, len(gr), len(wr))
			}
			var ir []Posting
			ir, scratch = got.SetRangeInto(id, set, scratch)
			if len(ir) != len(wr) {
				t.Fatalf("%s: token %d set %d: SetRangeInto len %d, want %d", stage, tid, set, len(ir), len(wr))
			}
			for i := range wr {
				if gr[i] != wr[i] || ir[i] != wr[i] {
					t.Fatalf("%s: token %d set %d posting %d mismatch", stage, tid, set, i)
				}
			}
		}
	}
	if g, w := got.TotalPostings(), want.TotalPostings(); g != w {
		t.Fatalf("%s: TotalPostings = %d, want %d", stage, g, w)
	}
}

// TestCompressedEquivalence: the compressed form answers every read
// identically to the heap form, for cache budgets from "evict constantly"
// through "everything fits" — including budget 1, which forces the cursor's
// streaming decode path.
func TestCompressedEquivalence(t *testing.T) {
	coll, _ := synthCorpus(60, 1)
	heap := Build(coll)
	for _, budget := range []int64{1, 1 << 10, 0} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			cx := BuildCompressed(coll, budget)
			if !cx.Compressed() {
				t.Fatal("BuildCompressed produced a non-compressed index")
			}
			requireSameIndex(t, "fresh", heap, cx)
			// Second sweep hits whatever the cache kept; still identical.
			requireSameIndex(t, "warm", heap, cx)
			st := cx.Storage()
			if st.DecodeErrors != 0 {
				t.Fatalf("decode errors on canonical containers: %d", st.DecodeErrors)
			}
			if st.EncodedBytes == 0 {
				t.Fatal("compressed index reports no encoded bytes")
			}
		})
	}
}

// TestCompressedCompressionRatio pins the tentpole's storage win on a
// long-tail distribution: containers must undercut materialized lists by at
// least 3× on this corpus.
func TestCompressedCompressionRatio(t *testing.T) {
	coll, _ := synthCorpusVocab(400, 200, 2)
	cx := BuildCompressed(coll, 0)
	st := cx.Storage()
	raw := int64(st.Postings) * postingBytes
	if st.EncodedBytes*3 > raw {
		t.Fatalf("compression ratio %.2fx (raw %d, encoded %d), want >= 3x",
			float64(raw)/float64(st.EncodedBytes), raw, st.EncodedBytes)
	}
}

// TestCompressedAppendAndRebuild: incremental appends land in the extras
// overlay and answer identically to a heap index over the same grown
// collection; Rebuild folds them back into containers.
func TestCompressedAppendAndRebuild(t *testing.T) {
	coll, _ := synthCorpus(40, 3)
	cx := BuildCompressed(coll, 1<<10)
	// Warm the cache so appends must invalidate stale materializations.
	requireSameIndex(t, "prewarm", Build(coll), cx)

	from := dataset.Append(coll, []dataset.RawSet{
		{Name: "n1", Elements: []string{"common mid0 fresh0", "rare1 fresh1"}},
		{Name: "n2", Elements: []string{"common fresh0 fresh2"}},
	})
	cx.AppendSets(from)
	heap := Build(coll)
	requireSameIndex(t, "appended", heap, cx)

	cx.Rebuild()
	if !cx.Compressed() {
		t.Fatal("Rebuild dropped the compressed form")
	}
	requireSameIndex(t, "rebuilt", heap, cx)
	if st := cx.Storage(); st.HeapBytes != 0 {
		t.Fatalf("rebuilt compressed index still holds %d heap bytes", st.HeapBytes)
	}
}

// TestFromContainersLazy: wrapping a container store decodes nothing until
// probed, and a probe decodes only the touched token.
func TestFromContainersLazy(t *testing.T) {
	coll, dict := synthCorpus(60, 4)
	src := BuildCompressed(coll, 0)
	b := dataset.NewContainerStoreBuilder(src.NumTokens())
	for tid := 0; tid < src.NumTokens(); tid++ {
		blob, ok := src.EncodedContainer(tid)
		if !ok {
			t.Fatalf("EncodedContainer(%d) not verbatim on a fresh compressed index", tid)
		}
		b.AddBlob(blob)
	}
	lx := FromContainers(coll, b.Finish(), true, 0)

	st := lx.Storage()
	if st.ResidentBytes != 0 || st.CacheMisses != 0 || st.CacheHits != 0 {
		t.Fatalf("lazy index did work before any probe: %+v", st)
	}
	id, _ := dict.Lookup("common")
	_ = lx.List(id)
	st = lx.Storage()
	if st.CacheMisses != 1 {
		t.Fatalf("one probe cost %d decodes, want 1", st.CacheMisses)
	}
	if !lx.SharesContainers() {
		t.Fatal("shared store not reported")
	}
	lx.UnshareContainers()
	if lx.SharesContainers() {
		t.Fatal("UnshareContainers left the store shared")
	}
	requireSameIndex(t, "unshared", Build(coll), lx)
}

// TestFromContainersConstantAllocs: wrapping a loaded container store is
// O(1) in the vocabulary — a fixed handful of objects (index header, cache,
// element-base table) no matter how many tokens the store holds. This is
// the index-layer half of the lazy-load allocation gate: decode allocations
// happen per probed token, never per vocabulary slot.
func TestFromContainersConstantAllocs(t *testing.T) {
	coll, _ := synthCorpus(200, 7)
	src := BuildCompressed(coll, 0)
	b := dataset.NewContainerStoreBuilder(src.NumTokens())
	for tid := 0; tid < src.NumTokens(); tid++ {
		blob, _ := src.EncodedContainer(tid)
		b.AddBlob(blob)
	}
	cs := b.Finish()
	allocs := testing.AllocsPerRun(10, func() {
		_ = FromContainers(coll, cs, true, 0)
	})
	if allocs > 16 {
		t.Errorf("FromContainers allocates %.0f objects over %d tokens — wrapping must not scale with the vocabulary",
			allocs, src.NumTokens())
	}
}

// TestListCacheEviction: the LRU stays within its byte budget (modulo the
// keep-newest rule), repeated probes hit, and evicted lists decode again
// correctly.
func TestListCacheEviction(t *testing.T) {
	coll, _ := synthCorpus(80, 5)
	budget := int64(2 << 10)
	cx := BuildCompressed(coll, budget)
	for tid := 0; tid < cx.NumTokens(); tid++ {
		_ = cx.List(tokens.ID(tid))
	}
	st := cx.Storage()
	// One over-budget entry may be retained; anything beyond that is a leak.
	if st.ResidentBytes > 2*budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.ResidentBytes, budget)
	}
	if st.CacheMisses == 0 {
		t.Fatal("no decode traffic recorded")
	}
	// Re-probe the most recent token: must be a hit.
	last := tokens.ID(cx.NumTokens() - 1)
	_ = cx.List(last)
	if after := cx.Storage(); after.CacheHits == st.CacheHits && after.CacheMisses == st.CacheMisses {
		t.Fatal("re-probe registered neither hit nor miss")
	}
	requireSameIndex(t, "thrashed", Build(coll), cx)
}

// TestCompressedSnapshotRoundTrip: saving a snapshot from a compressed index
// (verbatim container reuse) and re-wrapping the loaded store reproduces the
// index bit-for-bit — and matches a save from the equivalent heap index.
func TestCompressedSnapshotRoundTrip(t *testing.T) {
	coll, _ := synthCorpus(50, 6)
	heap := Build(coll)
	cx := BuildCompressed(coll, 0)

	var fromHeap, fromCx bytes.Buffer
	if err := dataset.SaveSnapshot(&fromHeap, &dataset.SnapshotData{Coll: coll, Source: heap}); err != nil {
		t.Fatal(err)
	}
	if err := dataset.SaveSnapshot(&fromCx, &dataset.SnapshotData{Coll: coll, Source: cx}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromHeap.Bytes(), fromCx.Bytes()) {
		t.Fatal("heap-sourced and container-sourced snapshots differ")
	}
	snap, err := dataset.LoadSnapshotBytes(fromCx.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Containers == nil {
		t.Fatal("v2 snapshot carries no container store")
	}
	lx := FromContainers(snap.Coll, snap.Containers, true, 0)
	requireSameIndex(t, "roundtrip", Build(snap.Coll), lx)
}
