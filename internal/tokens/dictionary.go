// Package tokens provides tokenization primitives for SilkMoth: a string
// interning dictionary that maps tokens to dense integer ids, whitespace word
// tokenization for Jaccard similarity, and q-gram / q-chunk tokenization for
// edit similarity (paper §3 and §7).
package tokens

// ID is a dense integer identifier for an interned token string.
// Dense ids let the inverted index be a plain slice instead of a map.
type ID int32

// Dictionary interns token strings and assigns each distinct string a dense
// ID starting from zero. It is an Interner, and it has no lock: it allows
// one writer at a time (Intern, InternBytes, Reclaim), ordered against its
// readers by its owner's lock — an engine writes it only before it is
// shared or under its write lock. Any number of readers may use it at once
// (Lookup, LookupBytes, String, Size, FreeSlots, and a Query interner over
// it): a query reads the dictionary and never writes it.
//
// The dictionary is derived state: it keeps no count of who uses an id.
// Only compaction frees ids — the engine rebuilds its inverted index over
// the live sets, marks the ids they use (dataset.Collection.Used) and
// hands the marks to Reclaim, which frees every other slot — and Intern
// reuses freed slots for new tokens, so the vocabulary shrinks with the
// data instead of growing forever on a long-lived mutable engine.
type Dictionary struct {
	ids  map[string]ID
	strs []string
	// free are reclaimed ids available for reuse; freed marks them so a
	// slot cannot be double-freed.
	free  []ID
	freed []bool
	// keys is the element-key interner that rides along with the token
	// dictionary: exact element content keys (dataset.ElementKey) interned
	// to dense ids so verification compares integers instead of building
	// strings per pair. It is itself a Dictionary, reclaimed by the same
	// compaction under the same one-writer rule; queries only look keys
	// up. Nil on the keys dictionary itself.
	keys *Dictionary
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		ids:  make(map[string]ID),
		keys: &Dictionary{ids: make(map[string]ID)},
	}
}

// Keys returns the element-key interner attached to this dictionary. Every
// collection sharing the dictionary interns element keys here (queries
// look theirs up), so two elements are identical iff their key ids are
// equal — the integer form of the §5.3 reduction test.
func (d *Dictionary) Keys() *Dictionary { return d.keys }

// Intern returns the ID for s, assigning a fresh one if s is new. New
// tokens reuse reclaimed slots before growing the id space.
func (d *Dictionary) Intern(s string) ID {
	if id, ok := d.ids[s]; ok {
		return id
	}
	return d.insert(s)
}

// InternBytes is Intern for a token held in a byte buffer. A known token is
// looked up through the compiler's zero-copy string([]byte) form and
// nothing allocates; only a first-time token materializes a string (it
// must outlive b, which callers reuse as scratch).
func (d *Dictionary) InternBytes(b []byte) ID {
	if id, ok := d.ids[string(b)]; ok {
		return id
	}
	return d.insert(string(b))
}

// insert assigns s, known to be absent, an id: a reclaimed slot if one is
// free, else the next.
func (d *Dictionary) insert(s string) ID {
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		d.freed[id] = false
		d.ids[s] = id
		d.strs[id] = s
		return id
	}
	id := ID(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	d.freed = append(d.freed, false)
	return id
}

// Lookup returns the ID for s without interning. The second return value
// reports whether s is known.
func (d *Dictionary) Lookup(s string) (ID, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// LookupBytes is Lookup for a token held in a byte buffer; it never
// allocates.
func (d *Dictionary) LookupBytes(b []byte) (ID, bool) {
	id, ok := d.ids[string(b)]
	return id, ok
}

// Reclaim frees every id below len(keep) that keep does not mark and that
// is not free already: its string is dropped from the intern map and its
// slot queued for reuse by later Interns, lowest id first. Ids at or past
// len(keep), which must not exceed Size, stay. Callers must only invoke it
// when no index still resolves an unmarked id to live postings — in
// practice during engine compaction, right after the posting lists are
// rebuilt over the sets whose ids keep marks. It returns the number of
// slots freed.
func (d *Dictionary) Reclaim(keep []bool) int {
	n := 0
	for id, k := range keep {
		if k || d.freed[id] {
			continue
		}
		delete(d.ids, d.strs[id])
		d.strs[id] = ""
		d.freed[id] = true
		n++
	}
	// insert pops from the end: stack the free slots highest id first.
	d.free = d.free[:0]
	for id := len(d.freed) - 1; id >= 0; id-- {
		if d.freed[id] {
			d.free = append(d.free, ID(id))
		}
	}
	return n
}

// FreeSlots returns the number of reclaimed ids currently awaiting reuse.
func (d *Dictionary) FreeSlots() int { return len(d.free) }

// String returns the token string for id. It panics if id is out of range.
func (d *Dictionary) String(id ID) string { return d.strs[id] }

// Size returns the number of ids assigned so far, freed ones included: no
// token the dictionary holds or has held has an id at or past it.
func (d *Dictionary) Size() int { return len(d.strs) }
