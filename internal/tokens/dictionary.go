// Package tokens provides tokenization primitives for SilkMoth: a string
// interning dictionary that maps tokens to dense integer ids, whitespace word
// tokenization for Jaccard similarity, and q-gram / q-chunk tokenization for
// edit similarity (paper §3 and §7).
package tokens

// ID is a dense integer identifier for an interned token string.
// Dense ids let the inverted index be a plain slice instead of a map.
type ID int32

// Dictionary interns token strings and assigns each distinct string a dense
// ID starting from zero. It is a Table — one byte arena, offsets and a
// hash index, nothing the garbage collector scans — with a second Table
// for element keys beside it. It has no lock: it allows one writer at a
// time (Intern, InternBytes, InternTable, Reclaim), ordered against its
// readers by its owner's lock — an engine writes it only before it is
// shared or under its write lock. Any number of readers may use it at once
// (Lookup, LookupBytes, String, Bytes, Size, FreeSlots, and a Query
// interner over it): a query reads the dictionary and never writes it.
//
// The dictionary is derived state: it keeps no count of who uses an id.
// Only compaction frees ids — the engine rebuilds its inverted index over
// the live sets, marks the ids they use (dataset.Collection.Used) and
// hands the marks to Reclaim, which frees every other slot — and Intern
// reuses freed slots for new tokens, so the vocabulary shrinks with the
// data instead of growing forever on a long-lived mutable engine.
type Dictionary struct {
	Table
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
	return &Dictionary{keys: &Dictionary{}}
}

// Keys returns the element-key interner attached to this dictionary. Every
// collection sharing the dictionary interns element keys here (queries
// look theirs up), so two elements are identical iff their key ids are
// equal — the integer form of the §5.3 reduction test.
func (d *Dictionary) Keys() *Dictionary { return d.keys }
