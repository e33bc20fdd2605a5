package dataset

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// fuzzElemBase is the fixed element-id space container fuzzing decodes
// against: 64 sets of 16 elements.
func fuzzElemBase() []int32 {
	return synthElemBase(64, 16)
}

// FuzzPostingContainer: arbitrary bytes fed to every container entry point
// must produce an error or a valid list — never a panic, and never an
// allocation driven by an unvalidated length field. When the blob does
// decode, re-encoding the decoded postings must reproduce it byte for byte
// (the decoder enforces canonical form).
func FuzzPostingContainer(f *testing.F) {
	eb := fuzzElemBase()
	rng := rand.New(rand.NewSource(1))
	var enc ContainerEncoder
	// One valid seed per container kind, plus malformed scraps.
	f.Add(enc.Append(nil, []Posting{{Set: 3, Elem: 2}, {Set: 9, Elem: 0}}, eb))
	f.Add(enc.Append(nil, randPostings(rng, eb, 0.08), eb))
	f.Add(enc.Append(nil, randPostings(rng, eb, 0.9), eb))
	f.Add([]byte{})
	f.Add([]byte{ContainerPacked, 0x80, 0x02, 0x03})
	f.Add([]byte{ContainerBitmap, 0x40, 0x00, 0x01})
	// An array whose last element is the overlong uvarint 0x80 0x00: it
	// reads as 0, and only a decoder that insists on the shortest encoding
	// rejects it.
	f.Add([]byte("\x00\x010\x80\x00"))

	f.Fuzz(func(t *testing.T, blob []byte) {
		pl := NewPostingList(blob, eb)
		list, err := pl.Materialize(nil)
		if err != nil {
			// Malformed blobs must also fail (or at least not panic) via
			// the seek path.
			_, _ = pl.SetRange(5, nil)
			return
		}
		if len(blob) > 0 && len(list) == 0 {
			t.Fatal("non-empty blob decoded to empty list")
		}
		// Decoded postings are sorted, unique, in range.
		for i, p := range list {
			if int(p.Set) >= len(eb)-1 || p.Set < 0 || p.Elem < 0 || p.Elem >= eb[p.Set+1]-eb[p.Set] {
				t.Fatalf("posting %d out of range: %+v", i, p)
			}
			if i > 0 && (p.Set < list[i-1].Set || (p.Set == list[i-1].Set && p.Elem <= list[i-1].Elem)) {
				t.Fatalf("postings out of order at %d", i)
			}
		}
		// Canonical form: decode→encode is byte-stable.
		var enc ContainerEncoder
		again := enc.Append(nil, list, eb)
		if !bytes.Equal(again, blob) {
			t.Fatalf("re-encode differs: %d bytes vs %d", len(again), len(blob))
		}
		// The seek entry points must agree with the materialized list.
		for _, set := range []int32{0, 5, 31, 63, 64, 100} {
			var want []Posting
			for _, p := range list {
				if p.Set == set {
					want = append(want, p)
				}
			}
			got, err := pl.SetRange(set, nil)
			if err != nil {
				t.Fatalf("SetRange(%d) on valid blob: %v", set, err)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("SetRange(%d) mismatch", set)
			}
		}
	})
}

// FuzzPostingContainerEncode: any sorted unique posting list must survive
// encode→decode→encode byte-stably, for every container kind the adaptive
// encoder can choose.
func FuzzPostingContainerEncode(f *testing.F) {
	f.Add(int64(1), 10, false)
	f.Add(int64(2), 300, false)
	f.Add(int64(3), 800, true)
	f.Fuzz(func(t *testing.T, seed int64, n int, forcePacked bool) {
		if n < 0 || n > 1024 {
			return
		}
		eb := fuzzElemBase()
		rng := rand.New(rand.NewSource(seed))
		total := int(eb[len(eb)-1])
		if n > total {
			n = total
		}
		// n distinct global ids, sorted — i.e. a valid posting list.
		perm := rng.Perm(total)[:n]
		ids := append([]int(nil), perm...)
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		list := make([]Posting, 0, n)
		set := int32(0)
		for _, id := range ids {
			for int(eb[set+1]) <= id {
				set++
			}
			list = append(list, Posting{Set: set, Elem: int32(id - int(eb[set]))})
		}
		encodeEB := eb
		if forcePacked {
			encodeEB = nil
		}
		var enc ContainerEncoder
		blob := enc.Append(nil, list, encodeEB)
		got, err := NewPostingList(blob, eb).Materialize(nil)
		if err != nil {
			t.Fatalf("decode of fresh encoding: %v", err)
		}
		if len(list) > 0 && !reflect.DeepEqual(got, list) {
			t.Fatalf("decode mismatch: %d vs %d postings", len(got), len(list))
		}
		again := enc.Append(nil, got, encodeEB)
		if !bytes.Equal(again, blob) {
			t.Fatalf("re-encode not byte-stable (%d vs %d bytes)", len(again), len(blob))
		}
	})
}
