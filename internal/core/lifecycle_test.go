package core

import (
	"errors"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
)

// lifecycleColl builds a small word-token collection whose last set holds
// tokens nothing else uses, so deleting it can demonstrably shrink the
// dictionary after compaction.
func lifecycleColl() *dataset.Collection {
	dict := tokens.NewDictionary()
	return dataset.BuildWord(dict, []dataset.RawSet{
		{Name: "a", Elements: []string{"red green blue", "red blue"}},
		{Name: "b", Elements: []string{"red green blue", "green blue"}},
		{Name: "c", Elements: []string{"red green", "red blue green"}},
		{Name: "unique", Elements: []string{"zebra quagga okapi", "zebra okapi"}},
	})
}

func lifecycleOpts() Options {
	return DefaultOptions(SetSimilarity, Jaccard, 0.5, 0)
}

func searchIndices(e *Engine, r *dataset.Set) []int {
	var out []int
	for _, m := range search(e, r) {
		out = append(out, m.Set)
	}
	return out
}

func TestDeleteTombstonesAndCompactReclaims(t *testing.T) {
	coll := lifecycleColl()
	e, err := NewEngine(coll, lifecycleOpts())
	if err != nil {
		t.Fatal(err)
	}

	ref := coll.Sets[0] // "a": related to b, c, and itself
	before := searchIndices(e, &ref)
	if len(before) < 2 {
		t.Fatalf("reference should relate to several sets, got %v", before)
	}

	// "zebra" is used only by set 3.
	if _, ok := coll.Dict.Lookup("zebra"); !ok {
		t.Fatal("zebra is not in the dictionary")
	}

	if err := e.Delete(1); err != nil {
		t.Fatal(err)
	}
	if e.LiveCount() != 3 || e.Tombstones() != 1 {
		t.Fatalf("after delete: live=%d tombstones=%d", e.LiveCount(), e.Tombstones())
	}
	if e.Alive(1) {
		t.Fatal("deleted set still alive")
	}
	for _, got := range searchIndices(e, &ref) {
		if got == 1 {
			t.Fatal("search returned the deleted set")
		}
	}

	// Deleting the unique-token set frees nothing yet…
	if err := e.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := coll.Dict.Lookup("zebra"); !ok || coll.Dict.FreeSlots() != 0 || coll.Dict.Keys().FreeSlots() != 0 {
		t.Fatal("slots must not be freed before compaction")
	}

	// …and compaction reclaims the slots, drops dead storage, and leaves
	// results unchanged.
	want := searchIndices(e, &ref)
	e.Compact()
	if e.Compactions() != 1 || e.Tombstones() != 0 {
		t.Fatalf("after compact: compactions=%d tombstones=%d", e.Compactions(), e.Tombstones())
	}
	// Tokens zebra, quagga and okapi; keys of both elements of set 3 and
	// of b's "green blue" (its "red green blue" is a's too).
	if _, ok := coll.Dict.Lookup("zebra"); ok || coll.Dict.FreeSlots() != 3 || coll.Dict.Keys().FreeSlots() != 3 {
		t.Fatalf("compaction should reclaim the unique tokens and keys: %d token and %d key slots free",
			coll.Dict.FreeSlots(), coll.Dict.Keys().FreeSlots())
	}
	if coll.Sets[3].Elements != nil {
		t.Fatal("compaction should drop dead element storage")
	}
	got := searchIndices(e, &ref)
	if len(got) != len(want) {
		t.Fatalf("results changed across compaction: %v vs %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("results changed across compaction: %v vs %v", got, want)
		}
	}

	// Compact with no tombstones is a no-op.
	e.Compact()
	if e.Compactions() != 1 {
		t.Fatal("empty compaction should be skipped")
	}
}

func TestDeleteErrors(t *testing.T) {
	e, err := NewEngine(lifecycleColl(), lifecycleOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 4, 100} {
		if err := e.Delete(bad); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Delete(%d) = %v, want ErrNotFound", bad, err)
		}
	}
	if err := e.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
}

func TestAutoCompactionThreshold(t *testing.T) {
	opts := lifecycleOpts()
	opts.CompactionThreshold = 0.5
	e, err := NewEngine(lifecycleColl(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(0); err != nil {
		t.Fatal(err)
	}
	if e.Compactions() != 0 {
		t.Fatal("1/4 dead should not compact at threshold 0.5")
	}
	if err := e.Delete(1); err != nil {
		t.Fatal(err)
	}
	// 2 tombstones over 2 live + 2 tombstoned = 0.5 >= threshold.
	if e.Compactions() != 1 {
		t.Fatalf("compactions = %d, want 1 (auto-triggered)", e.Compactions())
	}
	if e.Tombstones() != 0 {
		t.Fatal("tombstones should be reset by the auto compaction")
	}
}

func TestAddAfterCompactReusesDictionarySlots(t *testing.T) {
	coll := lifecycleColl()
	e, err := NewEngine(coll, lifecycleOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(3); err != nil { // the zebra/quagga/okapi set
		t.Fatal(err)
	}
	e.Compact()
	freed := coll.Dict.FreeSlots()
	if freed == 0 {
		t.Fatal("expected freed slots after compacting the unique set away")
	}
	sizeBefore := coll.Dict.Size()

	from := dataset.Append(coll, []dataset.RawSet{
		{Name: "new", Elements: []string{"walrus red", "walrus blue"}},
	})
	e.AppendSets(from)
	if coll.Dict.Size() != sizeBefore {
		t.Fatalf("dictionary grew from %d to %d; new token should reuse a freed slot",
			sizeBefore, coll.Dict.Size())
	}
	if coll.Dict.FreeSlots() != freed-1 {
		t.Fatalf("free slots = %d, want %d", coll.Dict.FreeSlots(), freed-1)
	}

	// The recycled id must resolve to fresh postings: searching for the new
	// content finds the new set and never the dead one.
	qc := dataset.BuildWord(coll.Dict, []dataset.RawSet{{Name: "q", Elements: []string{"walrus red", "walrus blue"}}})
	found := false
	for _, m := range search(e, &qc.Sets[0]) {
		if m.Set == 3 {
			t.Fatal("search returned the deleted set via a recycled token id")
		}
		if m.Set == from {
			found = true
		}
	}
	if !found {
		t.Fatal("search should find the newly added set")
	}
}

// TestCompactDropsDeadChunkRun is compaction under Eds, where every set also
// holds a q-chunk run: Compact drops it with the elements, frees the ids
// only the dead set used and keeps the others, and adding the same text
// again answers like a fresh build.
func TestCompactDropsDeadChunkRun(t *testing.T) {
	raws := []dataset.RawSet{
		{Name: "a", Elements: []string{"Boston", "Chicago", "Seattle"}},
		{Name: "b", Elements: []string{"Bostn", "Chicago", "Seatle"}},
		{Name: "c", Elements: []string{"Chicago", "Boston", "Denver"}},
		{Name: "unique", Elements: []string{"xylophone", "quartzite", "Boston"}},
	}
	const dead = 3
	coll, opts := buildFor(Eds, raws, 0.8, 0)
	e, err := NewEngine(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := coll.Dict
	s := &coll.Sets[dead]
	if len(s.ChunkIDs()) == 0 {
		t.Fatal("fixture: the set to delete has no chunk run")
	}
	// The ids the dead set holds (q-grams of its elements and its chunks),
	// their strings, and which of them the other sets use too.
	held := map[tokens.ID]string{}
	for j := range s.Elements {
		for _, id := range s.Elements[j].Tokens {
			held[id] = d.String(id)
		}
	}
	for _, id := range s.ChunkIDs() {
		held[id] = d.String(id)
	}
	others, _ := coll.Used(func(i int) bool { return i != dead })
	unique := 0
	for _, id := range s.ChunkIDs() {
		if !others[id] {
			unique++
		}
	}
	if unique == 0 {
		t.Fatal("fixture: no chunk id is held by the dead set alone")
	}

	if err := e.Delete(dead); err != nil {
		t.Fatal(err)
	}
	e.Compact()
	if s.Size() != 0 || s.ChunkIDs() != nil || s.Chunks(0) != nil {
		t.Fatalf("dead slot after compaction: %d elements, chunk run %v", s.Size(), s.ChunkIDs())
	}
	for id, str := range held {
		got, ok := d.Lookup(str)
		if others[id] && (!ok || got != id) {
			t.Errorf("token %d %q, still used, was reclaimed (Lookup %d, %v)", id, str, got, ok)
		}
		if !others[id] && ok {
			t.Errorf("token %d %q, used by the dead set alone, survived compaction", id, str)
		}
	}

	from := dataset.Append(coll, raws[dead:dead+1])
	e.AppendSets(from)
	fcoll, fopts := buildFor(Eds, raws, 0.8, 0)
	fresh, err := NewEngine(fcoll, fopts)
	if err != nil {
		t.Fatal(err)
	}
	// Slot i of the fresh build is slot i of the engine, but for the
	// re-added set, which the engine holds at from.
	slot := func(i int) int {
		if i == dead {
			return from
		}
		return i
	}
	for i := range fcoll.Sets {
		fs, es := &fcoll.Sets[i], &coll.Sets[slot(i)]
		for j := range fs.Elements {
			if !sameChunkStrings(d, es.Chunks(j), fcoll.Dict, fs.Chunks(j)) {
				t.Fatalf("set %d element %d: chunks differ from a fresh build", i, j)
			}
		}
		got, want := search(e, es), search(fresh, fs)
		if len(got) != len(want) {
			t.Fatalf("search %q: %v, fresh build %v", fs.Name, got, want)
		}
		for k := range want {
			if got[k].Set != slot(want[k].Set) || got[k].Relatedness != want[k].Relatedness || got[k].Score != want[k].Score {
				t.Fatalf("search %q: %v, fresh build %v", fs.Name, got, want)
			}
		}
	}
}

// sameChunkStrings reports whether two chunk lists, each over its own
// dictionary, spell the same q-chunks in the same order.
func sameChunkStrings(da *tokens.Dictionary, a []tokens.ID, db *tokens.Dictionary, b []tokens.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if da.String(a[k]) != db.String(b[k]) {
			return false
		}
	}
	return true
}
