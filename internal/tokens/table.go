package tokens

import (
	"hash/maphash"
	"math"
)

// Table is an intern table: it gives each distinct string a dense id, in
// the order of its first Intern, and holds no pointer the garbage collector
// has to scan. Every string lives in one byte arena, back to back; spans
// gives each id the offset and length of its bytes there; and index, an
// open-addressing hash table over the arena (hash/maphash, triangular
// probing, occupied and tombstoned slots at most three quarters of it),
// holds id+1 in an occupied slot, 0 in an empty one and tombstone in the
// slot of a freed id. A table costs its strings' bytes plus 8 bytes an id
// for its span and 5.3 to 10.7 for the index.
//
// Reclaim frees ids; Intern reuses them lowest id first before it grows
// the id space. The zero Table is empty and ready to use. Like the
// Dictionary built on it, it allows one writer at a time (Intern,
// InternBytes, InternTable, Reclaim) and any number of readers once no one
// writes.
type Table struct {
	arena []byte
	spans []span
	index []int32
	seed  maphash.Seed
	// free are the reclaimed ids, highest first: intern pops the lowest.
	free []ID
	// tombs counts the index's tombstone slots.
	tombs int
}

// span locates an id's bytes in the arena. A freed id has off freeOff.
type span struct{ off, n uint32 }

const (
	freeOff = math.MaxUint32
	// minIndex is the smallest index a table hashes into.
	minIndex = 8
	// tombstone marks the index slot of a freed id: a probe goes past it,
	// and an insert may take it.
	tombstone = -1
)

// text is what a table interns and looks up: a string, or bytes a caller
// reuses (they are copied into the arena, never retained).
type text interface{ string | []byte }

// Intern returns the id of s, assigning one if s is new: a reclaimed slot
// if one is free, else the next id. It allocates only to grow the table.
func (t *Table) Intern(s string) ID {
	t.init()
	return intern(t, s, maphash.String(t.seed, s))
}

// InternBytes is Intern for a token held in a byte buffer, which the table
// copies and never retains.
func (t *Table) InternBytes(b []byte) ID {
	t.init()
	return intern(t, b, maphash.Bytes(t.seed, b))
}

// Lookup returns the id of s without interning it; the second result
// reports whether s is held. It never allocates.
func (t *Table) Lookup(s string) (ID, bool) {
	if t.index == nil {
		return 0, false
	}
	id, _ := find(t, s, maphash.String(t.seed, s))
	return id, id >= 0
}

// LookupBytes is Lookup for a token held in a byte buffer.
func (t *Table) LookupBytes(b []byte) (ID, bool) {
	if t.index == nil {
		return 0, false
	}
	id, _ := find(t, b, maphash.Bytes(t.seed, b))
	return id, id >= 0
}

// InternTable interns src's strings into t in src's id order and returns
// where they went: t's id for src's id i is remap[i]. src must have freed
// no id.
func (t *Table) InternTable(src *Table) (remap []ID) {
	remap = make([]ID, len(src.spans))
	for id := range src.spans {
		remap[id] = t.InternBytes(src.Bytes(ID(id)))
	}
	return remap
}

// Reclaim frees every id below len(keep) that keep does not mark and that
// is not free already, queues its slot for reuse by later Interns, lowest
// id first, and compacts the arena over the ids it keeps. Only the freed
// strings are hashed, to tombstone their index slots; the kept ones move
// in the arena, which rewrites their spans and leaves the index as it is.
// The index is rebuilt only once tombstones fill a quarter of it. Ids at
// or past len(keep), which must not exceed Size, stay. Callers must only
// invoke it when no index still resolves an unmarked id to live postings —
// in practice during engine compaction, right after the posting lists are
// rebuilt over the sets whose ids keep marks. It returns the number of
// slots freed.
func (t *Table) Reclaim(keep []bool) int {
	n := 0
	for id, k := range keep {
		if !k && t.spans[id].off != freeOff {
			t.bury(ID(id))
			t.spans[id] = span{off: freeOff}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	t.free = t.free[:0]
	for id := len(t.spans) - 1; id >= 0; id-- {
		if t.spans[id].off == freeOff {
			t.free = append(t.free, ID(id))
		}
	}
	live, size := 0, 0
	for _, sp := range t.spans {
		if sp.off != freeOff {
			live++
			size += int(sp.n)
		}
	}
	arena := make([]byte, 0, size)
	for id := range t.spans {
		if sp := &t.spans[id]; sp.off != freeOff {
			off := len(arena)
			arena = append(arena, t.arena[sp.off:sp.off+sp.n]...)
			sp.off = uint32(off)
		}
	}
	t.arena = arena
	if t.tombs*4 > len(t.index) {
		slots := minIndex
		for slots*3 < live*4 {
			slots *= 2
		}
		t.rehash(slots)
	}
	return n
}

// bury tombstones the index slot of id, which is not free.
func (t *Table) bury(id ID) {
	sp := t.spans[id]
	mask := len(t.index) - 1
	i := int(maphash.Bytes(t.seed, t.arena[sp.off:sp.off+sp.n])) & mask
	for step := 1; t.index[i] != int32(id)+1; step++ {
		i = (i + step) & mask
	}
	t.index[i] = tombstone
	t.tombs++
}

// FreeSlots returns the number of reclaimed ids awaiting reuse.
func (t *Table) FreeSlots() int { return len(t.free) }

// Size returns the number of ids assigned so far, freed ones included: no
// string the table holds or has held has an id at or past it.
func (t *Table) Size() int { return len(t.spans) }

// String returns a copy of the string with id, "" for a freed id. It
// panics if id is out of range.
func (t *Table) String(id ID) string { return string(t.Bytes(id)) }

// Bytes returns the bytes of the string with id, nil for a freed id: a
// view of the arena that the caller must not modify and must not keep past
// the table's next write. It panics if id is out of range.
func (t *Table) Bytes(id ID) []byte {
	sp := t.spans[id]
	if sp.off == freeOff {
		return nil
	}
	return t.arena[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// reset empties t, keeping its buffers for the next strings.
func (t *Table) reset() {
	if len(t.spans) > 0 {
		clear(t.index)
		t.arena, t.spans, t.free, t.tombs = t.arena[:0], t.spans[:0], t.free[:0], 0
	}
}

// init seeds the hash and sizes the index of a table's first write.
func (t *Table) init() {
	if t.index == nil {
		t.seed = maphash.MakeSeed()
		t.index = make([]int32, minIndex)
	}
}

// find returns the id of s, whose hash is h, or -1 and the slot of the
// index where s would go: the first tombstone its probe passed, else the
// empty slot that ended it.
func find[T text](t *Table, s T, h uint64) (ID, int) {
	mask := len(t.index) - 1
	i := int(h) & mask
	free := -1
	for step := 1; ; step++ {
		switch v := t.index[i]; {
		case v == 0:
			if free < 0 {
				free = i
			}
			return -1, free
		case v == tombstone:
			if free < 0 {
				free = i
			}
		default:
			if sp := t.spans[v-1]; int(sp.n) == len(s) && string(t.arena[sp.off:sp.off+sp.n]) == string(s) {
				return ID(v - 1), i
			}
		}
		i = (i + step) & mask
	}
}

// intern returns the id of s, whose hash is h, storing s if it is new.
func intern[T text](t *Table, s T, h uint64) ID {
	id, slot := find(t, s, h)
	if id >= 0 {
		return id
	}
	if live := len(t.spans) - len(t.free); (live+t.tombs+1)*4 > len(t.index)*3 {
		// Past the load bound: double for the live ids, or clear the
		// tombstones at the same size when they are what fills it.
		slots := len(t.index)
		if (live+1)*2 > slots {
			slots *= 2
		}
		t.rehash(slots)
		_, slot = find(t, s, h)
	}
	if uint64(len(t.arena))+uint64(len(s)) >= freeOff {
		panic("tokens: intern table holds more than 4 GiB of strings")
	}
	sp := span{off: uint32(len(t.arena)), n: uint32(len(s))}
	t.arena = append(t.arena, s...)
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
		t.spans[id] = sp
	} else {
		id = ID(len(t.spans))
		t.spans = append(t.spans, sp)
	}
	if t.index[slot] == tombstone {
		t.tombs--
	}
	t.index[slot] = int32(id) + 1
	return id
}

// rehash rebuilds the index at slots slots, a power of two, over every id
// not free, leaving no tombstone.
func (t *Table) rehash(slots int) {
	t.index = make([]int32, slots)
	t.tombs = 0
	mask := slots - 1
	for id, sp := range t.spans {
		if sp.off == freeOff {
			continue
		}
		i := int(maphash.Bytes(t.seed, t.arena[sp.off:sp.off+sp.n])) & mask
		for step := 1; t.index[i] != 0; step++ {
			i = (i + step) & mask
		}
		t.index[i] = int32(id) + 1
	}
}
