// Package dataset defines SilkMoth's tokenized data model: collections of
// sets, where each set is a list of elements and each element is a bag of
// tokens (paper §2). One writer (writer.go) lays every collection out —
// each set's element backing, token run and q-chunk run, and the
// collection's element table — under one of three policies: intern into
// the dictionary (a build's first range, Append, a snapshot load), intern
// into a range-local table (a parallel build's later ranges), or look up
// only (QueryScratch). Builds, Append, the query scratch and the snapshot
// loader drive it; the package also provides plain-text file I/O and
// summary statistics.
package dataset

import (
	"encoding/binary"
	"fmt"
	"strings"
	"unicode/utf8"

	"silkmoth/internal/tokens"
)

// TokenMode says how raw element strings were turned into index tokens.
type TokenMode int

const (
	// ModeWord tokenizes elements into whitespace-delimited words
	// (Jaccard similarity, paper §3).
	ModeWord TokenMode = iota
	// ModeQGram tokenizes elements into q-grams for the index and
	// q-chunks for signatures (edit similarity, paper §7).
	ModeQGram
)

func (m TokenMode) String() string {
	switch m {
	case ModeWord:
		return "word"
	case ModeQGram:
		return "qgram"
	default:
		return fmt.Sprintf("TokenMode(%d)", int(m))
	}
}

// Element is one tokenized element of a set: a row value, an attribute, or a
// word, depending on the application. Its q-chunks live in the set's chunk
// run (Set.Chunks), and its content key and size in the element table of
// the collection that holds it (Collection.Dir): the struct is 40 bytes, and
// TestLayoutGate holds it there — an indexed collection pays every byte of
// it once per element.
type Element struct {
	// Raw is the original element text, used by edit similarity and for
	// reporting.
	Raw string
	// Tokens are the sorted, deduplicated ids of the element's index
	// tokens: words under ModeWord, q-grams under ModeQGram.
	Tokens []tokens.ID
}

// Length returns the size the similarity bounds divide by: the number of
// distinct word tokens under ModeWord, the rune length of Raw under
// ModeQGram. It is what the element table stores as DirEntry.Size, derived
// from the content, never taken from a file.
func (e *Element) Length(mode TokenMode) int {
	if mode == ModeQGram {
		return utf8.RuneCountInString(e.Raw)
	}
	return len(e.Tokens)
}

// NoKey is the DirEntry.Key of a non-reducible element: no tokens under
// ModeWord, an empty Raw under ModeQGram, or a query element whose content
// the key table does not hold.
const NoKey = tokens.ID(-1)

// appendWordKey appends the word-mode content key of an element with the
// given tokens: the uvarint deltas of the sorted, duplicate-free ids, the
// first from 0. Equal id lists give equal bytes and the deltas decode back
// to the ids, so two keys are equal exactly when the token sets are.
func appendWordKey(b []byte, ids []tokens.ID) []byte {
	prev := tokens.ID(0)
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id-prev))
		prev = id
	}
	return b
}

// Set is an ordered list of elements with an external name.
type Set struct {
	Name     string
	Elements []Element
	// chunks is the set's q-chunk run, nil under ModeWord: one end offset
	// per element, then every element's chunk ids back to back. Element
	// i's chunks are chunks[chunks[i-1]:chunks[i]], the first starting
	// at len(Elements). One run per set instead of a slice per element
	// keeps Element at 40 bytes under both modes.
	chunks []tokens.ID
}

// Size returns the number of elements in the set.
func (s *Set) Size() int { return len(s.Elements) }

// Chunks returns the ids of element i's q-chunks: nil under ModeWord,
// where signatures are chosen from Tokens instead. Under ModeQGram
// signatures for edit similarity are chosen from chunks (paper §7.1);
// they may repeat and are not sorted. The slice aliases the set's run and
// must not be modified.
func (s *Set) Chunks(i int) []tokens.ID {
	if len(s.chunks) == 0 {
		return nil
	}
	lo := tokens.ID(len(s.Elements))
	if i > 0 {
		lo = s.chunks[i-1]
	}
	hi := s.chunks[i]
	return s.chunks[lo:hi:hi]
}

// ChunkIDs returns every chunk id of the set, element after element: the
// run Chunks slices, nil under ModeWord.
func (s *Set) ChunkIDs() []tokens.ID {
	if len(s.chunks) == 0 {
		return nil
	}
	return s.chunks[len(s.Elements):]
}

// Drop releases the set's elements and its chunk run, keeping a copy of
// its name: what compaction leaves of a dead slot. The copy matters for a
// set loaded from a snapshot, whose name shares one string with all of its
// elements' text.
func (s *Set) Drop() { s.Name, s.Elements, s.chunks = strings.Clone(s.Name), nil, nil }

// Collection is a tokenized list of sets sharing one dictionary.
type Collection struct {
	Sets []Set
	// Dir is the collection's element table: every element's content key
	// and size, one DirEntry per element of Sets. The collection writer,
	// DropSets and Subset keep it in step with Sets.
	Dir  Directory
	Dict *tokens.Dictionary
	Mode TokenMode
	// Q is the gram length used under ModeQGram, 0 under ModeWord.
	Q int
}

// Used marks the ids the collection's sets use, one mark per id of the
// dictionary's token table (element tokens and q-chunk ids) and of its key
// table (element keys other than NoKey). A non-nil alive skips every set i
// for which alive(i) is false. The marks are what compaction keeps
// (tokens.Dictionary.Reclaim) and what a snapshot writes.
func (c *Collection) Used(alive func(int) bool) (toks, keys []bool) {
	toks = make([]bool, c.Dict.Size())
	keys = make([]bool, c.Dict.Keys().Size())
	for i := range c.Sets {
		if alive != nil && !alive(i) {
			continue
		}
		s := &c.Sets[i]
		for j := range s.Elements {
			for _, id := range s.Elements[j].Tokens {
				toks[id] = true
			}
		}
		for _, ent := range c.Dir.Set(int32(i)) {
			if ent.Key != NoKey {
				keys[ent.Key] = true
			}
		}
		for _, id := range s.ChunkIDs() {
			toks[id] = true
		}
	}
	return toks, keys
}

// RawSet is an untokenized set: a name plus raw element strings.
type RawSet struct {
	Name     string
	Elements []string
}

// BuildWord tokenizes raw sets by whitespace words for Jaccard similarity.
// All sets share the dictionary dict, which the build writes: pass a fresh
// dictionary for a new corpus, or the dictionary of an existing collection
// to add sets to it. Query sets are tokenized by QueryScratch instead,
// which only reads it.
func BuildWord(dict *tokens.Dictionary, raws []RawSet) *Collection {
	return build(dict, raws, ModeWord, 0, 1)
}

// BuildQGram tokenizes raw sets into q-grams (index tokens) and q-chunks
// (signature tokens) for edit similarity. q must be positive.
func BuildQGram(dict *tokens.Dictionary, raws []RawSet, q int) *Collection {
	return build(dict, raws, ModeQGram, q, 1)
}

// Build tokenizes raw sets according to mode: BuildWord for ModeWord,
// BuildQGram for ModeQGram.
func Build(dict *tokens.Dictionary, raws []RawSet, mode TokenMode, q int) *Collection {
	if mode == ModeWord {
		return BuildWord(dict, raws)
	}
	return BuildQGram(dict, raws, q)
}

// BuildRanges is Build from parts contiguous set-id ranges (Range)
// tokenized in parallel. The collection and the dictionary come out
// exactly as Build leaves them, every token and key id the same. Like
// every build it is dict's writer until it returns. parts < 2 is one
// range.
func BuildRanges(dict *tokens.Dictionary, raws []RawSet, mode TokenMode, q, parts int) *Collection {
	return build(dict, raws, mode, q, parts)
}

// Append tokenizes raws with c's dictionary and mode and appends the
// resulting sets to c, and their entries to its element table, through a
// writer that continues on c. It returns the index of the first appended
// set.
// Callers holding an inverted index over c must extend it afterwards
// (index.Inverted.AppendSets).
func Append(c *Collection, raws []RawSet) int {
	from := len(c.Sets)
	var w writer
	w.start(c, internDict, from)
	for _, rs := range raws {
		w.writeRaw(rs)
	}
	w.finish(nil)
	return from
}

// DropSets drops every set i with dead[i] (Set.Drop) and lays the element
// table out afresh over what remains, sized exactly: the entries of the
// other sets keep their values, at the element ids the smaller collection
// gives them. What compaction does to the collection before it rebuilds
// the index.
func (c *Collection) DropSets(dead []bool) {
	for i, d := range dead {
		if d {
			c.Sets[i].Drop()
		}
	}
	old := c.Dir
	c.Dir = layoutDirectory(len(c.Sets), func(i int) int { return len(c.Sets[i].Elements) })
	for i := range c.Sets {
		copy(c.Dir.Set(int32(i)), old.Set(int32(i)))
	}
}

// Subset returns the collection of c's sets numbered idx, in that order,
// over c's dictionary: the sets share their elements with c, and the
// element table is the subset's own, copied from c's.
func (c *Collection) Subset(idx []int) *Collection {
	sub := &Collection{Sets: make([]Set, len(idx)), Dict: c.Dict, Mode: c.Mode, Q: c.Q}
	for k, i := range idx {
		sub.Sets[k] = c.Sets[i]
	}
	sub.Dir = layoutDirectory(len(idx), func(k int) int { return len(sub.Sets[k].Elements) })
	for k, i := range idx {
		copy(sub.Dir.Set(int32(k)), c.Dir.Set(int32(i)))
	}
	return sub
}

// ElementKey returns the exact content key string for an element under the
// given mode, for the identical-element reduction of paper §5.3. Identical
// elements get equal keys; the empty key marks non-reducible (empty)
// elements. Nothing on a build or query path calls it: the collection
// writer stages the same bytes in a reused buffer (entry) and resolves
// them once into the element table (DirEntry.Key), and verification
// compares those dense ids instead.
func ElementKey(e *Element, mode TokenMode) string {
	if mode == ModeQGram {
		return e.Raw
	}
	return string(appendWordKey(nil, e.Tokens))
}
