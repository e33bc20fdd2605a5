package dataset

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// synthElemBase builds an element-base table for numSets sets of
// elemsPerSet elements each.
func synthElemBase(numSets, elemsPerSet int) []int32 {
	eb := make([]int32, numSets+1)
	for i := 0; i < numSets; i++ {
		eb[i+1] = eb[i] + int32(elemsPerSet)
	}
	return eb
}

// randPostings draws a sorted, duplicate-free posting list over the id
// space of eb. density in (0,1] steers how many of the possible
// (set, elem) pairs appear.
func randPostings(rng *rand.Rand, eb []int32, density float64) []Posting {
	var out []Posting
	numSets := len(eb) - 1
	for s := 0; s < numSets; s++ {
		n := int(eb[s+1] - eb[s])
		for e := 0; e < n; e++ {
			if rng.Float64() < density {
				out = append(out, Posting{Set: int32(s), Elem: int32(e)})
			}
		}
	}
	return out
}

func encodeList(t *testing.T, list []Posting, eb []int32) []byte {
	t.Helper()
	var enc ContainerEncoder
	return enc.Append(nil, list, eb)
}

func TestContainerRoundTripKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	eb := synthElemBase(200, 10)

	cases := []struct {
		name    string
		list    []Posting
		want    byte
		density string
	}{
		{name: "empty", list: nil, want: ContainerArray},
		{name: "single", list: []Posting{{Set: 7, Elem: 3}}, want: ContainerArray},
		{name: "tiny", list: randPostings(rng, synthElemBase(30, 1), 0.5), want: ContainerArray},
		{name: "sparse-long", list: randPostings(rng, eb, 0.05), want: ContainerPacked},
		{name: "dense", list: randPostings(rng, eb, 0.9), want: ContainerBitmap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := encodeList(t, tc.list, eb)
			if len(tc.list) == 0 {
				if len(blob) != 0 {
					t.Fatalf("empty list encoded to %d bytes", len(blob))
				}
				return
			}
			pl := NewPostingList(blob, eb)
			if got := pl.Kind(); got != tc.want {
				t.Fatalf("kind = 0x%02x, want 0x%02x (n=%d)", got, tc.want, len(tc.list))
			}
			if got := pl.Len(); got != len(tc.list) {
				t.Fatalf("Len = %d, want %d", got, len(tc.list))
			}
			got, err := pl.Materialize(nil)
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			if !reflect.DeepEqual(got, tc.list) {
				t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, tc.list)
			}
			// Re-encoding the decoded postings must be byte-stable.
			again := encodeList(t, got, eb)
			if !bytes.Equal(again, blob) {
				t.Fatalf("re-encode not byte-stable: %d vs %d bytes", len(again), len(blob))
			}
		})
	}
}

func TestContainerIterMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eb := synthElemBase(500, 6)
	for _, density := range []float64{0.01, 0.1, 0.4, 0.95} {
		list := randPostings(rng, eb, density)
		blob := encodeList(t, list, eb)
		pl := NewPostingList(blob, eb)
		it := pl.Iter()
		var got []Posting
		for {
			p, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, p)
		}
		if err := it.Err(); err != nil {
			t.Fatalf("density %v: iter error: %v", density, err)
		}
		if !reflect.DeepEqual(got, list) {
			t.Fatalf("density %v (kind 0x%02x): iterator mismatch (%d vs %d postings)",
				density, pl.Kind(), len(got), len(list))
		}
	}
}

func TestContainerSetRange(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	eb := synthElemBase(300, 8)
	for _, density := range []float64{0.02, 0.3, 0.9} {
		list := randPostings(rng, eb, density)
		blob := encodeList(t, list, eb)
		pl := NewPostingList(blob, eb)
		for set := int32(-1); set < 302; set++ {
			var want []Posting
			for _, p := range list {
				if p.Set == set {
					want = append(want, p)
				}
			}
			got, err := pl.SetRange(set, nil)
			if err != nil {
				t.Fatalf("SetRange(%d): %v", set, err)
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("density %v SetRange(%d) = %v, want %v", density, set, got, want)
			}
		}
	}
}

// TestContainerBlockBoundarySets pins the packed-container edge where one
// set's postings span a block boundary.
func TestContainerBlockBoundarySets(t *testing.T) {
	// 3 sets × 200 elements: set 1 spans the first block boundary.
	eb := synthElemBase(3, 200)
	var list []Posting
	for s := int32(0); s < 3; s++ {
		for e := int32(0); e < 200; e += 2 {
			list = append(list, Posting{Set: s, Elem: e})
		}
	}
	var enc ContainerEncoder
	blob := enc.Append(nil, list, nil) // force packed
	pl := NewPostingList(blob, eb)
	if pl.Kind() != ContainerPacked {
		t.Fatalf("kind = 0x%02x, want packed", pl.Kind())
	}
	for s := int32(0); s < 3; s++ {
		got, err := pl.SetRange(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("SetRange(%d) returned %d postings, want 100", s, len(got))
		}
	}
}

func TestContainerRejectsMalformed(t *testing.T) {
	eb := synthElemBase(10, 4)
	list := randPostings(rand.New(rand.NewSource(1)), eb, 0.8)
	blob := encodeList(t, list, eb)

	cases := []struct {
		name string
		blob []byte
	}{
		{"unknown kind", []byte{0x07, 3, 0, 0}},
		{"truncated header", []byte{ContainerArray}},
		{"zero count", []byte{ContainerArray, 0, 1, 1}},
		{"count overruns", []byte{ContainerArray, 200, 1}},
		{"truncated body", blob[:len(blob)-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPostingList(tc.blob, eb)
			if _, err := pl.Materialize(nil); !errors.Is(err, ErrContainerCorrupt) {
				t.Fatalf("Materialize = %v, want ErrContainerCorrupt", err)
			}
		})
	}

	// Out-of-order postings must be rejected whatever the kind.
	var enc ContainerEncoder
	bad := enc.Append(nil, []Posting{{Set: 5, Elem: 0}, {Set: 5, Elem: 0}}, nil)
	if _, err := NewPostingList(bad, eb).Materialize(nil); err == nil {
		t.Fatal("duplicate posting not rejected")
	}
	// A posting beyond the element base must be rejected.
	oob := enc.Append(nil, []Posting{{Set: 3, Elem: 99}}, nil)
	if _, err := NewPostingList(oob, eb).Materialize(nil); err == nil {
		t.Fatal("out-of-range element not rejected")
	}
}

func TestContainerStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eb := synthElemBase(100, 10)
	lists := make([][]Posting, 50)
	for i := range lists {
		switch i % 4 {
		case 0: // empty
		case 1:
			lists[i] = randPostings(rng, eb, 0.01)
		case 2:
			lists[i] = randPostings(rng, eb, 0.1)
		default:
			lists[i] = randPostings(rng, eb, 0.8)
		}
	}
	b := NewContainerStoreBuilder(len(lists))
	for _, l := range lists {
		b.Add(l, eb)
	}
	cs := b.Finish()
	if cs.NumTokens() != len(lists) {
		t.Fatalf("NumTokens = %d, want %d", cs.NumTokens(), len(lists))
	}
	// The store must survive its own validation path.
	cs2, err := NewContainerStore(cs.n, cs.offs, cs.data)
	if err != nil {
		t.Fatalf("NewContainerStore on builder output: %v", err)
	}
	for i, want := range lists {
		got, err := NewPostingList(cs2.Blob(i), eb).Materialize(nil)
		if err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
		if len(want) == 0 {
			if len(got) != 0 {
				t.Fatalf("token %d: got %d postings from empty list", i, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("token %d mismatch", i)
		}
	}
	if cs.Blob(-1) != nil || cs.Blob(len(lists)) != nil {
		t.Fatal("out-of-range Blob not nil")
	}

	clone := cs.Clone()
	for i := range lists {
		if !bytes.Equal(clone.Blob(i), cs.Blob(i)) {
			t.Fatalf("clone blob %d differs", i)
		}
	}
}

func TestContainerStoreRejectsBadOffsets(t *testing.T) {
	mk := func(offs []byte, data []byte, n int) error {
		_, err := NewContainerStore(n, offs, data)
		return err
	}
	if err := mk([]byte{0, 0, 0, 0, 2, 0, 0, 0}, []byte{1, 2}, 1); err != nil {
		t.Fatalf("valid store rejected: %v", err)
	}
	bad := []struct {
		name string
		offs []byte
		data []byte
		n    int
	}{
		{"short table", []byte{0, 0, 0, 0}, nil, 1},
		{"nonzero start", []byte{1, 0, 0, 0, 2, 0, 0, 0}, []byte{1, 2}, 1},
		{"not monotone", []byte{0, 0, 0, 0, 5, 0, 0, 0, 2, 0, 0, 0}, []byte{1, 2, 3, 4, 5}, 2},
		{"bad end", []byte{0, 0, 0, 0, 9, 0, 0, 0}, []byte{1, 2}, 1},
	}
	for _, tc := range bad {
		if err := mk(tc.offs, tc.data, tc.n); !errors.Is(err, ErrContainerCorrupt) {
			t.Fatalf("%s: err = %v, want ErrContainerCorrupt", tc.name, err)
		}
	}
}

// TestContainerAdaptiveChoiceIsSmallest cross-checks that the encoder's
// packed/bitmap choice actually picks the smaller encoding.
func TestContainerAdaptiveChoiceIsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eb := synthElemBase(256, 8)
	for _, density := range []float64{0.05, 0.2, 0.5, 0.95} {
		list := randPostings(rng, eb, density)
		if len(list) <= ArrayMaxPostings {
			continue
		}
		var enc ContainerEncoder
		adaptive := enc.Append(nil, list, eb)
		packed := enc.Append(nil, list, nil) // nil eb forces packed
		if len(adaptive) > len(packed) {
			t.Fatalf("density %v: adaptive %d bytes > packed %d bytes",
				density, len(adaptive), len(packed))
		}
	}
}
