package index

import (
	"fmt"

	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
)

// DirEntry is what the element directory holds about one indexed element:
// the two facts the filters ask of an element they have only a posting for.
// Eight bytes, which TestLayoutGate (internal/filter) pins.
type DirEntry struct {
	// Key is the element's dataset.Element.Key: what the filters memoize
	// φ_α under.
	Key tokens.ID
	// Size is the element's dataset.Element.Length, the size its
	// similarities are bounded by: the number of tokens under ModeWord —
	// what the token-based similarities are functions of, next to an
	// overlap count — and the rune length under ModeQGram, which decides
	// what an edit similarity can reach before the strings are read.
	Size int32
}

// Directory is an index's element directory: one DirEntry per element of
// the indexed collection, addressed the way a posting addresses the
// collection — entry base[Set]+Elem, the global element id of
// dataset.ElemBase. The filters see one posting after another from sets all
// over the collection; the directory answers them from one dense table
// where coll.Sets[Set].Elements[Elem] is three dependent loads ending in a
// 48-byte struct.
//
// Readers hold the index's own Directory (Inverted.Directory), which
// AppendSets and Rebuild change under the engine's exclusive lock, as they
// do the posting lists.
type Directory struct {
	base []int32 // dataset.ElemBase of the indexed sets: len(sets)+1 entries
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

// buildDirectory derives the directory of c, sized exactly.
func buildDirectory(c *dataset.Collection) Directory {
	total := 0
	for i := range c.Sets {
		total += len(c.Sets[i].Elements)
	}
	d := Directory{base: make([]int32, 1, len(c.Sets)+1), ents: make([]DirEntry, 0, total)}
	d.extend(c)
	return d
}

// extend appends the entries of every set of c the directory does not cover
// yet. Existing entries keep their place, so a prefix of base stays the
// table older containers were encoded against.
func (d *Directory) extend(c *dataset.Collection) {
	for i := len(d.base) - 1; i < len(c.Sets); i++ {
		for j := range c.Sets[i].Elements {
			e := &c.Sets[i].Elements[j]
			d.ents = append(d.ents, DirEntry{Key: e.Key, Size: e.Length})
		}
		d.base = append(d.base, int32(len(d.ents)))
	}
}

// bytes is the directory's heap footprint.
func (d *Directory) bytes() int64 {
	return int64(cap(d.ents))*8 + int64(cap(d.base))*4
}

// Directory returns the index's element directory.
//
//silkmoth:hotpath
func (ix *Inverted) Directory() *Directory { return &ix.dir }

// CheckDirectory verifies the derived state against the collection it was
// derived from: the base table is dataset.ElemBase of the collection and
// every entry is ⟨Key, Length⟩ of the element it stands for. The
// mutation and recovery harnesses call it after every kind of index
// maintenance; nil means consistent.
func (ix *Inverted) CheckDirectory() error {
	d, c := &ix.dir, ix.coll
	eb := dataset.ElemBase(c)
	if len(d.base) != len(eb) {
		return fmt.Errorf("index: directory covers %d sets, collection has %d", len(d.base)-1, len(c.Sets))
	}
	for i, b := range eb {
		if d.base[i] != b {
			return fmt.Errorf("index: directory base[%d] = %d, ElemBase %d", i, d.base[i], b)
		}
	}
	if len(d.ents) != int(eb[len(c.Sets)]) {
		return fmt.Errorf("index: directory holds %d entries, collection %d elements", len(d.ents), eb[len(c.Sets)])
	}
	if ix.cs != nil && (ix.encSets < 0 || ix.encSets >= len(d.base)) {
		return fmt.Errorf("index: containers encoded against %d sets, directory covers %d", ix.encSets, len(d.base)-1)
	}
	for i := range c.Sets {
		for j := range c.Sets[i].Elements {
			e := &c.Sets[i].Elements[j]
			got, want := d.At(Posting{Set: int32(i), Elem: int32(j)}), DirEntry{Key: e.Key, Size: e.Length}
			if got != want {
				return fmt.Errorf("index: directory entry of set %d element %d = %+v, element has %+v", i, j, got, want)
			}
		}
	}
	return nil
}
