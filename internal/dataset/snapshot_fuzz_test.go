package dataset

import (
	"bytes"
	"testing"

	"silkmoth/internal/tokens"
)

// FuzzLoadSnapshot: arbitrary bytes must produce an error or a structurally
// sound snapshot — never a panic, and never an allocation driven by an
// unvalidated length field (counts are capped against remaining payload
// bytes before any make, so a hostile header costs a failed read, not
// memory).
func FuzzLoadSnapshot(f *testing.F) {
	// Valid images as seeds: with postings, without, with dead slots.
	snap := buildSnapshotFixture()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, snap); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := SaveSnapshot(&buf, &SnapshotData{Coll: snap.Coll}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	qc := BuildQGram(tokens.NewDictionary(), []RawSet{{Name: "q", Elements: []string{"abcdef"}}}, 3)
	if err := SaveSnapshot(&buf, &SnapshotData{Coll: qc}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	// Several chunk runs, one of them empty, and a dead slot.
	qc = BuildQGram(tokens.NewDictionary(), []RawSet{
		{Name: "a", Elements: []string{"abcdef", "", "Zürich"}},
		{Name: "b", Elements: []string{""}},
		{Name: "c", Elements: []string{"abc", "abcdefg"}},
	}, 2)
	if err := SaveSnapshot(&buf, &SnapshotData{Coll: qc, Dead: []bool{false, false, true}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Token ids that repeat, and a delta that wraps 32 bits.
	f.Add(tokenDeltaImage(1, 0, 0))
	f.Add(tokenDeltaImage(2, 1<<32-1))
	f.Add([]byte(snapshotMagic))
	f.Add([]byte(snapshotMagic + "\x01"))
	// A header declaring a huge meta section.
	f.Add(append([]byte(snapshotMagic+"\x01"), 0x01, 0xFF, 0xFF, 0xFF, 0x3F))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever loads must satisfy the invariants the engine relies on.
		c := got.Coll
		if c == nil || c.Dict == nil {
			t.Fatal("loaded snapshot with nil collection or dictionary")
		}
		if got.Dead != nil && len(got.Dead) != len(c.Sets) {
			t.Fatalf("dead bitmap length %d over %d sets", len(got.Dead), len(c.Sets))
		}
		for i := range c.Sets {
			s := &c.Sets[i]
			run := 0
			for j := range s.Elements {
				run += len(s.Chunks(j))
			}
			if run != len(s.ChunkIDs()) || (c.Mode == ModeWord && s.ChunkIDs() != nil) {
				t.Fatalf("set %d: %d chunks over its elements, a run of %d under %v", i, run, len(s.ChunkIDs()), c.Mode)
			}
			for _, id := range s.ChunkIDs() {
				if int(id) >= c.Dict.Size() {
					t.Fatalf("set %d chunk %d out of dictionary range", i, id)
				}
			}
			for j := range s.Elements {
				e := &s.Elements[j]
				for k, id := range e.Tokens {
					if int(id) >= c.Dict.Size() {
						t.Fatalf("set %d element %d token %d out of dictionary range", i, j, id)
					}
					if k > 0 && id <= e.Tokens[k-1] {
						t.Fatalf("set %d element %d tokens %v do not ascend strictly", i, j, e.Tokens)
					}
				}
			}
		}
		// Derived, never trusted: the bounds divide by Length.
		if err := c.CheckDirectory(); err != nil {
			t.Fatalf("loaded element table: %v", err)
		}
		postings, err := got.DecodePostings()
		if err != nil {
			// A structurally sound frame can still hold a corrupt container
			// blob; lazy decode surfaces that here, which is fine.
			return
		}
		for tok, list := range postings {
			for _, p := range list {
				if int(p.Set) >= len(c.Sets) || p.Set < 0 {
					t.Fatalf("token %d posting set %d out of range", tok, p.Set)
				}
				if int(p.Elem) >= len(c.Sets[p.Set].Elements) || p.Elem < 0 {
					t.Fatalf("token %d posting elem %d out of range", tok, p.Elem)
				}
				if got.Dead != nil && got.Dead[p.Set] {
					t.Fatalf("token %d posting references dead set %d", tok, p.Set)
				}
			}
		}
		// A loaded snapshot must save again cleanly, index image included
		// (the writer trusts the invariants the loader enforced).
		if postings != nil {
			got.Source = testLists(postings)
		}
		var out bytes.Buffer
		if err := SaveSnapshot(&out, got); err != nil {
			t.Fatalf("re-saving a loaded snapshot: %v", err)
		}
		// And load again with the same chunks, token ids renumbered or not.
		again, err := LoadSnapshot(&out)
		if err != nil {
			t.Fatalf("reloading a re-saved snapshot: %v", err)
		}
		for i := range c.Sets {
			if got.Dead != nil && got.Dead[i] {
				continue
			}
			s, as := &c.Sets[i], &again.Coll.Sets[i]
			for j := range s.Elements {
				if !sameChunkStrings(c.Dict, s.Chunks(j), again.Coll.Dict, as.Chunks(j)) {
					t.Fatalf("set %d element %d: chunks changed across a re-save", i, j)
				}
			}
		}
	})
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
