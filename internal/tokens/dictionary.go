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
// one writer at a time (Intern, InternBytes, Retain, Release, Reclaim),
// ordered against its readers by its owner's lock — an engine writes it
// only before it is shared or under its write lock. Any number of readers
// may use it at once (Lookup, LookupBytes, String, Size, Refs, FreeSlots,
// and a Query interner over it): a query reads the dictionary and never
// writes it.
//
// Mutable collections additionally refcount their tokens through
// Retain/Release: an engine retains every indexed set's token ids and
// releases them when the set is deleted. An id whose refcount reaches zero
// is only a reclamation *candidate*; Reclaim — called by the engine's
// compaction, when the inverted index is rebuilt and the stale postings
// disappear — actually frees the slot, and Intern reuses freed slots for
// new tokens, so the vocabulary shrinks with the data instead of growing
// forever on a long-lived mutable engine.
type Dictionary struct {
	ids  map[string]ID
	strs []string
	// refs counts live collection references per id (Retain/Release).
	// An id interned but never retained sits at zero, but is never
	// pending and thus never reclaimed.
	refs []int32
	// pending are ids whose refcount fell to zero since the last Reclaim;
	// Reclaim frees those still at zero (a later Retain resurrects).
	pending []ID
	// free are reclaimed ids available for reuse; freed marks them so a
	// slot cannot be double-freed.
	free  []ID
	freed []bool
	// keys is the element-key interner that rides along with the token
	// dictionary: exact element content keys (dataset.ElementKey) interned
	// to dense ids so verification compares integers instead of building
	// strings per pair. It is itself a Dictionary, with the same
	// retain/release lifecycle and the same one-writer rule; queries only
	// look keys up. Nil on the keys dictionary itself.
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
	d.refs = append(d.refs, 0)
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

// Retain bumps the collection refcount of every id in ids. Engines retain
// each indexed occurrence of a set's tokens and chunks (and, on the key
// table, each of its element keys) in one call per set, so Release on
// delete is exactly symmetric.
func (d *Dictionary) Retain(ids []ID) {
	for _, id := range ids {
		d.refs[id]++
	}
}

// Release drops collection refcounts bumped by Retain. Ids that reach zero
// become reclamation candidates for the next Reclaim; their strings and
// slots stay valid until then.
func (d *Dictionary) Release(ids []ID) {
	for _, id := range ids {
		if d.refs[id] > 0 {
			d.refs[id]--
			if d.refs[id] == 0 {
				d.pending = append(d.pending, id)
			}
		}
	}
}

// Reclaim frees every pending id whose refcount is still zero: the string
// is dropped from the intern map and the slot queued for reuse by future
// Interns. Callers must only invoke it when no index still resolves the
// freed ids to live postings — in practice, during engine compaction,
// right after posting lists are rebuilt. It returns the number of slots
// freed.
func (d *Dictionary) Reclaim() int {
	n := 0
	for _, id := range d.pending {
		if d.refs[id] != 0 || d.freed[id] {
			continue // resurrected by a later Retain, or already freed
		}
		delete(d.ids, d.strs[id])
		d.strs[id] = ""
		d.freed[id] = true
		d.free = append(d.free, id)
		n++
	}
	d.pending = d.pending[:0]
	return n
}

// FreeSlots returns the number of reclaimed ids currently awaiting reuse.
func (d *Dictionary) FreeSlots() int { return len(d.free) }

// Refs returns the current collection refcount of id.
func (d *Dictionary) Refs(id ID) int { return int(d.refs[id]) }

// String returns the token string for id. It panics if id is out of range.
func (d *Dictionary) String(id ID) string { return d.strs[id] }

// Size returns the number of ids assigned so far, freed ones included: no
// token the dictionary holds or has held has an id at or past it.
func (d *Dictionary) Size() int { return len(d.strs) }
