package dataset

import (
	"fmt"

	"silkmoth/internal/tokens"
)

// DirEntry is what the element table holds about one element: the two
// facts the filters ask of an element they have only a posting for, and the
// reduction asks of every element it pairs. Eight bytes, which
// TestLayoutGate (internal/filter) pins.
type DirEntry struct {
	// Key is the element's exact content key in the dictionary's key space
	// (Dict.Keys()): interned by a build, looked up by a query. Two
	// elements over the same dictionary are identical iff their Keys are
	// equal and not NoKey. The §5.3 verification reduction compares these
	// integers instead of materializing ElementKey strings per pair, and
	// the filters memoize φ_α under them for the length of a pass.
	Key tokens.ID
	// Size is Element.Length: the number of tokens under ModeWord — what
	// the token-based similarities are functions of, next to an overlap
	// count — and the rune length under ModeQGram, which decides what an
	// edit similarity can reach before the strings are read.
	Size int32
}

// Directory is a collection's element table: one DirEntry per element,
// addressed the way a posting addresses the collection — entry
// base[Set]+Elem, the global element id of ElemBase. It is the one copy of
// every element's key and size. The filters see one posting after another
// from sets all over the collection and read it through the index
// (index.Inverted.Directory) from one dense table, where
// coll.Sets[Set].Elements[Elem] is three dependent loads ending in a
// 40-byte struct.
//
// The collection writer writes it (a build, Append, a snapshot load and
// QueryScratch), DropSets and Subset lay it out afresh; readers hold it
// under the engine's lock, as they do the sets.
type Directory struct {
	base []int32 // ElemBase of the sets: len(sets)+1 entries
	ents []DirEntry
}

// At returns the entry of the element a posting names.
//
//silkmoth:hotpath
func (d *Directory) At(p Posting) DirEntry { return d.ents[d.base[p.Set]+p.Elem] }

// Set returns the entries of one set's elements, indexed by element number.
//
//silkmoth:hotpath
func (d *Directory) Set(set int32) []DirEntry { return d.ents[d.base[set]:d.base[set+1]] }

// Base returns the table's ElemBase: entry i is where set i's entries
// start, the last one the element count. Appending sets extends it and
// keeps every earlier entry, which is why containers encoded against a
// prefix of it stay decodable. The slice must not be modified.
func (d *Directory) Base() []int32 { return d.base }

// Bytes is the table's heap footprint.
func (d *Directory) Bytes() int64 {
	return int64(cap(d.ents))*8 + int64(cap(d.base))*4
}

// layoutDirectory returns the table of n sets, set i holding count(i)
// elements, sized exactly and every entry zero.
func layoutDirectory(n int, count func(i int) int) Directory {
	base := make([]int32, n+1)
	for i := range n {
		base[i+1] = base[i] + int32(count(i))
	}
	return Directory{base: base, ents: make([]DirEntry, base[n])}
}

// CheckDirectory verifies the element table against the content it was
// derived from: its base is ElemBase of the collection, and every entry
// holds the element's Length and the key found by looking the element's
// content up in the dictionary's key table (NoKey when the table holds
// none). The mutation and recovery harnesses call it, through the index,
// after every kind of maintenance; nil means consistent.
func (c *Collection) CheckDirectory() error {
	d := &c.Dir
	eb := ElemBase(c)
	if len(d.base) != len(eb) {
		return fmt.Errorf("dataset: element table covers %d sets, collection has %d", len(d.base)-1, len(c.Sets))
	}
	for i, b := range eb {
		if d.base[i] != b {
			return fmt.Errorf("dataset: element table base[%d] = %d, ElemBase %d", i, d.base[i], b)
		}
	}
	if len(d.ents) != int(eb[len(c.Sets)]) {
		return fmt.Errorf("dataset: element table holds %d entries, collection %d elements", len(d.ents), eb[len(c.Sets)])
	}
	var want []DirEntry
	var buf []byte
	for i := range c.Sets {
		want, buf = c.LookupEntries(want[:0], &c.Sets[i], buf)
		for j, got := range d.Set(int32(i)) {
			if got != want[j] {
				return fmt.Errorf("dataset: element table entry of set %d element %d = %+v, content has %+v", i, j, got, want[j])
			}
		}
	}
	return nil
}

// LookupEntries appends to dst the entries s would have in c's element
// table, for a set tokenized over c's dictionary and mode that no
// collection's table covers: each element's Length and the key c's key
// table holds for its content, NoKey where it holds none. They equal the
// entries of the table that holds s, whichever collection over c's
// dictionary that is. buf stages word-mode keys and is returned for reuse.
func (c *Collection) LookupEntries(dst []DirEntry, s *Set, buf []byte) ([]DirEntry, []byte) {
	keys := keyLookup{c.Dict.Keys()}
	for j := range s.Elements {
		var ent DirEntry
		ent, buf = entry(keys, &s.Elements[j], c.Mode, buf)
		dst = append(dst, ent)
	}
	return dst, buf
}
