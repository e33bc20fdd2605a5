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
			for j := range c.Sets[i].Elements {
				e := &c.Sets[i].Elements[j]
				for _, id := range e.Tokens {
					if int(id) >= c.Dict.Size() {
						t.Fatalf("set %d element %d token %d out of dictionary range", i, j, id)
					}
				}
				// Derived, never trusted: the bounds divide by it.
				if int(e.Length) != elementLength(e, c.Mode) {
					t.Fatalf("set %d element %d loaded with Length %d, its content has %d", i, j, e.Length, elementLength(e, c.Mode))
				}
			}
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
	})
}
