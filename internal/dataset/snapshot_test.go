package dataset

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"silkmoth/internal/tokens"
)

// testLists is the fixture's PostingProvider: materialized lists by token
// id, never an encoded container (the index is the production provider).
type testLists [][]Posting

func (p testLists) NumTokens() int                      { return len(p) }
func (p testLists) EncodedContainer(int) ([]byte, bool) { return nil, false }
func (p testLists) AppendPostings(t int, dst []Posting) []Posting {
	return append(dst, p[t]...)
}

// buildSnapshotFixture tokenizes a small word collection, tombstones one
// slot, and assembles a SnapshotData with postings filtered the way the
// engine's snapshot writer would (dead slots contribute nothing).
func buildSnapshotFixture() *SnapshotData {
	dict := tokens.NewDictionary()
	c := BuildWord(dict, []RawSet{
		{Name: "A", Elements: []string{"77 Mass Ave", "5th St"}},
		{Name: "doomed", Elements: []string{"goes away entirely"}},
		{Name: "B", Elements: []string{"77 5th St Chicago"}},
	})
	dead := []bool{false, true, false}
	// Postings over live sets only, sorted by (Set, Elem) per token id.
	lists := make([][]Posting, dict.Size())
	for i := range c.Sets {
		if dead[i] {
			continue
		}
		for j := range c.Sets[i].Elements {
			for _, t := range c.Sets[i].Elements[j].Tokens {
				lists[t] = append(lists[t], Posting{Set: int32(i), Elem: int32(j)})
			}
		}
	}
	// Mimic the engine: dead slots keep their index reservation but hold
	// nothing (the saver writes them as placeholders regardless, but the
	// fixture should match the runtime shape post-compaction too).
	return &SnapshotData{Coll: c, Dead: dead, Source: testLists(lists)}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := buildSnapshotFixture()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c, gc := snap.Coll, got.Coll
	if gc.Mode != c.Mode || gc.Q != c.Q || len(gc.Sets) != len(c.Sets) {
		t.Fatalf("shape: mode %v q %d sets %d", gc.Mode, gc.Q, len(gc.Sets))
	}
	if len(got.Dead) != len(snap.Dead) || !got.Dead[1] || got.Dead[0] || got.Dead[2] {
		t.Fatalf("dead bitmap %v", got.Dead)
	}
	// The dead slot is an empty placeholder: id space intact, content gone.
	if gc.Sets[1].Name != "" || len(gc.Sets[1].Elements) != 0 {
		t.Fatalf("dead slot persisted content: %+v", gc.Sets[1])
	}
	// Live sets round-trip semantically: same raws, lengths, and — after
	// the pruned remap — token ids that resolve to the same strings.
	for _, i := range []int{0, 2} {
		s, gs := &c.Sets[i], &gc.Sets[i]
		if gs.Name != s.Name || len(gs.Elements) != len(s.Elements) {
			t.Fatalf("set %d shape differs", i)
		}
		for j := range s.Elements {
			e, ge := &s.Elements[j], &gs.Elements[j]
			if ge.Raw != e.Raw || ge.Length != e.Length || len(ge.Tokens) != len(e.Tokens) {
				t.Fatalf("set %d element %d differs: %+v vs %+v", i, j, ge, e)
			}
			for k := range e.Tokens {
				if gc.Dict.String(ge.Tokens[k]) != c.Dict.String(e.Tokens[k]) {
					t.Fatalf("set %d element %d token %d renamed", i, j, k)
				}
			}
			// Keys are re-interned, never NoKey for word mode.
			if ge.Key == NoKey {
				t.Fatalf("set %d element %d lost its key", i, j)
			}
		}
	}
	// The token table was pruned to live usage: the dead set's exclusive
	// words are gone.
	if _, ok := gc.Dict.Lookup("goes"); ok {
		t.Fatal("dead set's exclusive token survived pruning")
	}
	if _, ok := gc.Dict.Lookup("77"); !ok {
		t.Fatal("live token lost")
	}
	// Postings round-trip: same per-token multiset of (set, elem) pairs,
	// modulo the token renumbering — compare via token strings. They load
	// as lazy containers; DecodePostings materializes and validates.
	if got.Containers == nil {
		t.Fatal("postings not persisted")
	}
	gotPostings, err := got.DecodePostings()
	if err != nil {
		t.Fatal(err)
	}
	for old, list := range snap.Source.(testLists) {
		if len(list) == 0 {
			continue
		}
		word := c.Dict.String(tokens.ID(old))
		nid, ok := gc.Dict.Lookup(word)
		if !ok {
			t.Fatalf("token %q missing after load", word)
		}
		glist := gotPostings[nid]
		if len(glist) != len(list) {
			t.Fatalf("token %q list length %d, want %d", word, len(glist), len(list))
		}
		for k := range list {
			if glist[k] != list[k] {
				t.Fatalf("token %q posting %d = %+v, want %+v", word, k, glist[k], list[k])
			}
		}
	}
}

func TestSnapshotRoundTripQGramNoPostings(t *testing.T) {
	dict := tokens.NewDictionary()
	c := BuildQGram(dict, []RawSet{
		{Name: "A", Elements: []string{"Database", "Systems"}},
	}, 3)
	snap := &SnapshotData{Coll: c}
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Containers != nil {
		t.Fatal("postings materialized from a snapshot without them")
	}
	gc := got.Coll
	if gc.Mode != ModeQGram || gc.Q != 3 {
		t.Fatalf("mode/q = %v/%d", gc.Mode, gc.Q)
	}
	for j := range c.Sets[0].Elements {
		e, ge := &c.Sets[0].Elements[j], &gc.Sets[0].Elements[j]
		if ge.Raw != e.Raw || ge.Length != e.Length ||
			len(ge.Tokens) != len(e.Tokens) || len(ge.Chunks) != len(e.Chunks) {
			t.Fatalf("element %d shape differs", j)
		}
		for k := range e.Chunks {
			if gc.Dict.String(ge.Chunks[k]) != c.Dict.String(e.Chunks[k]) {
				t.Fatalf("element %d chunk %d renamed", j, k)
			}
		}
	}
}

// A snapshot from a future format version must be rejected with the typed
// error, not misparsed.
func TestSnapshotFutureVersion(t *testing.T) {
	snap := buildSnapshotFixture()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(snapshotMagic)] = snapshotVersion + 1
	_, err := LoadSnapshot(bytes.NewReader(data))
	var uve *UnsupportedVersionError
	if !errors.As(err, &uve) {
		t.Fatalf("future version: got %v, want UnsupportedVersionError", err)
	}
	if uve.Format != "snapshot" || uve.Version != snapshotVersion+1 || uve.Supported != snapshotVersion {
		t.Fatalf("error fields %+v", uve)
	}
}

// Every single-byte flip of a valid snapshot must fail cleanly (the CRC
// per section guarantees detection for payload bytes; header corruption
// fails structurally), never panic, and never load successfully unless the
// flip is in a checksum byte itself... which still mismatches. A full
// sweep is the fuzz target's job; this pins a few strategic offsets.
func TestSnapshotCorruptionDetected(t *testing.T) {
	snap := buildSnapshotFixture()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for _, off := range []int{0, 5, len(snapshotMagic) + 1, len(valid) / 2, len(valid) - 1} {
		data := append([]byte(nil), valid...)
		data[off] ^= 0xFF
		if _, err := LoadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("flip at %d loaded successfully", off)
		}
	}
	// Truncations at every length must also fail cleanly.
	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := LoadSnapshot(bytes.NewReader(valid[:cut])); err == nil {
			t.Errorf("truncation to %d bytes loaded successfully", cut)
		}
	}
}

// Element.Length is derived from the content, like Key: an image whose
// stored value disagrees with the content it sits beside is corrupt, however
// valid its checksums — every signature bound divides by Length. Both modes:
// the token count under ModeWord, the rune length of Raw under ModeQGram.
func TestLoadSnapshotRejectsWrongLength(t *testing.T) {
	for _, c := range []*Collection{
		BuildWord(tokens.NewDictionary(), []RawSet{{Name: "w", Elements: []string{"a b c", "d e"}}}),
		BuildQGram(tokens.NewDictionary(), []RawSet{{Name: "q", Elements: []string{"héllo wörld", "abc"}}}, 2),
	} {
		var buf bytes.Buffer
		if err := SaveSnapshot(&buf, &SnapshotData{Coll: c}); err != nil {
			t.Fatal(err)
		}
		snap, err := LoadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%v: the image as built does not load: %v", c.Mode, err)
		}
		if got, want := snap.Coll.Sets[0].Elements[0].Length, c.Sets[0].Elements[0].Length; got != want {
			t.Fatalf("%v: loaded Length %d, built %d", c.Mode, got, want)
		}
		c.Sets[0].Elements[1].Length++ // what a bug, or an editor, could have written
		buf.Reset()
		if err := SaveSnapshot(&buf, &SnapshotData{Coll: c}); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(&buf); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%v: an image whose stored Length disagrees with its content: error %v, want ErrSnapshotCorrupt", c.Mode, err)
		}
	}
}

// saveLoad round-trips a bare collection through the snapshot image.
func saveLoad(t *testing.T, c *Collection) *SnapshotData {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, &SnapshotData{Coll: c}); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// With every slot live and every token in use the save-side remap is the
// identity: ids, dictionary size and token strings all survive verbatim.
func TestSaveLoadWordCollection(t *testing.T) {
	dict := tokens.NewDictionary()
	orig := BuildWord(dict, []RawSet{
		{Name: "A", Elements: []string{"77 Mass Ave", "5th St", ""}},
		{Name: "B", Elements: []string{"77 5th St Chicago IL"}},
	})
	snap := saveLoad(t, orig)
	got := snap.Coll
	if snap.Dead != nil {
		t.Errorf("dead bitmap %v on an all-live image", snap.Dead)
	}
	if got.Mode != orig.Mode || got.Q != orig.Q {
		t.Errorf("mode/q = %v/%d", got.Mode, got.Q)
	}
	if got.Dict.Size() != orig.Dict.Size() {
		t.Errorf("dict size = %d, want %d", got.Dict.Size(), orig.Dict.Size())
	}
	compareSets(t, got.Sets, orig.Sets)
	for i := 0; i < orig.Dict.Size(); i++ {
		if got.Dict.String(tokens.ID(i)) != orig.Dict.String(tokens.ID(i)) {
			t.Fatalf("token %d renamed", i)
		}
	}
}

func TestSaveLoadQGramCollection(t *testing.T) {
	dict := tokens.NewDictionary()
	orig := BuildQGram(dict, []RawSet{
		{Name: "A", Elements: []string{"Database", "Systems"}},
	}, 3)
	snap := saveLoad(t, orig)
	if snap.Coll.Q != 3 || snap.Coll.Mode != ModeQGram {
		t.Errorf("q/mode = %d/%v", snap.Coll.Q, snap.Coll.Mode)
	}
	compareSets(t, snap.Coll.Sets, orig.Sets)
}

// compareSets compares collections semantically: the decoder leaves empty
// slices nil, which reflect.DeepEqual would flag spuriously.
func compareSets(t *testing.T, got, want []Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("set count %d vs %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Name != w.Name || len(g.Elements) != len(w.Elements) {
			t.Fatalf("set %d shape differs", i)
		}
		for j := range g.Elements {
			ge, we := &g.Elements[j], &w.Elements[j]
			if ge.Raw != we.Raw || ge.Length != we.Length ||
				!reflect.DeepEqual(append([]tokens.ID{}, ge.Tokens...), append([]tokens.ID{}, we.Tokens...)) ||
				!reflect.DeepEqual(append([]tokens.ID{}, ge.Chunks...), append([]tokens.ID{}, we.Chunks...)) {
				t.Fatalf("set %d element %d differs: %+v vs %+v", i, j, ge, we)
			}
		}
	}
}

func TestLoadCorrupt(t *testing.T) {
	for name, data := range map[string][]byte{"garbage": {1, 2, 3}, "empty": nil} {
		if _, err := LoadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s stream: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// A reader that fails is not a corrupt image: the cause must come back
// wrapped, and must not match ErrSnapshotCorrupt.
func TestLoadSnapshotReaderError(t *testing.T) {
	boom := errors.New("broken pipe")
	_, err := LoadSnapshot(iotest.ErrReader(boom))
	if !errors.Is(err, boom) {
		t.Fatalf("reader error lost: %v", err)
	}
	if errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("reader error reported as corruption: %v", err)
	}
}

// Files of the two retired formats — the SMOTHCOL collection file and
// snapshot version 1 — are intact artifacts this build has no reader for.
// Each must fail with an error that names the format and the way out, and
// that is neither corruption nor the newer-version error.
func TestRetiredFormatsRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, buildSnapshotFixture()); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), buf.Bytes()...)
	v1[len(snapshotMagic)] = 1
	for _, tc := range []struct {
		name  string
		data  []byte
		names string
	}{
		{"collection file", []byte("SMOTHCOL\x02\x00\x00\x01\x01\x01x"), "SMOTHCOL"},
		{"collection file, gob era", []byte("SMOTHCOL\x01"), "SMOTHCOL"},
		{"snapshot v1", v1, "version 1"},
	} {
		_, err := LoadSnapshotBytes(tc.data)
		var uve *UnsupportedVersionError
		if !errors.Is(err, ErrRetiredFormat) || errors.Is(err, ErrSnapshotCorrupt) || errors.As(err, &uve) {
			t.Errorf("%s: got %v, want ErrRetiredFormat only", tc.name, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.names) || !strings.Contains(msg, "re-save with the previous build") {
			t.Errorf("%s: error %q does not name the format and the migration", tc.name, msg)
		}
	}
	// Version 0 was never written by any build: that is corruption.
	v0 := append([]byte(nil), buf.Bytes()...)
	v0[len(snapshotMagic)] = 0
	if _, err := LoadSnapshotBytes(v0); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("version 0: got %v, want ErrSnapshotCorrupt", err)
	}
}
