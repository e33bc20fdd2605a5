// Package dataset defines SilkMoth's tokenized data model: collections of
// sets, where each set is a list of elements and each element is a bag of
// tokens (paper §2). It also provides builders that turn raw strings into
// tokenized collections, plain-text file I/O, and summary statistics.
package dataset

import (
	"fmt"

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
// word, depending on the application.
type Element struct {
	// Raw is the original element text, used by edit similarity and for
	// reporting.
	Raw string
	// Tokens are the sorted, deduplicated ids of the element's index
	// tokens: words under ModeWord, q-grams under ModeQGram.
	Tokens []tokens.ID
	// Chunks are the ids of the element's q-chunks, set only under
	// ModeQGram; signatures for edit similarity are chosen from chunks
	// (paper §7.1). Chunks may repeat and are not sorted.
	Chunks []tokens.ID
	// Length is the size the similarity bounds divide by: the number of
	// distinct word tokens under ModeWord, the rune length of Raw under
	// ModeQGram. Like Key it is derived from the content, never taken from
	// a file (elementLength). It is an int32 so that it shares a word with
	// Key: the struct is 72 bytes, and TestLayoutGate holds it there — an
	// indexed collection pays every byte of it once per element.
	Length int32
	// Key is the element's exact content key interned into the shared
	// dictionary's key space (Dict.Keys()): two elements over the same
	// dictionary are identical iff their Keys are equal and not NoKey.
	// The §5.3 verification reduction compares these integers instead of
	// materializing ElementKey strings per pair, and the filters memoize
	// φ_α under them for the length of a pass. NoKey marks elements that
	// can never be reduced (no tokens / empty raw).
	Key tokens.ID
}

// NoKey is the Element.Key of a non-reducible element.
const NoKey = tokens.ID(-1)

// internKey computes and interns e's exact content key, returning NoKey for
// non-reducible (empty) elements. Indexed collections intern (their keys
// are retained/released through the engine lifecycle); query collections
// must use lookupKey instead.
func internKey(dict *tokens.Dictionary, e *Element, mode TokenMode) tokens.ID {
	k := ElementKey(e, mode)
	if k == "" {
		return NoKey
	}
	return dict.Keys().Intern(k)
}

// internKeyBuf is internKey staged through a caller-owned scratch buffer:
// the word-mode key bytes are built in buf (returned for reuse) and
// interned via InternBytes, so a loader re-deriving keys for a whole
// collection pays one string materialization per element instead of a
// buffer plus a string.
func internKeyBuf(dict *tokens.Dictionary, e *Element, mode TokenMode, buf []byte) (tokens.ID, []byte) {
	if mode == ModeQGram {
		if e.Raw == "" {
			return NoKey, buf
		}
		return dict.Keys().Intern(e.Raw), buf
	}
	if len(e.Tokens) == 0 {
		return NoKey, buf
	}
	buf = buf[:0]
	for _, id := range e.Tokens {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dict.Keys().InternBytes(buf), buf
}

// lookupKey resolves e's content key without interning: a query element
// whose key is not already in the dictionary cannot be identical to any
// indexed element, so NoKey (never reduced, similarity computed exactly) is
// the correct — and leak-free — answer. Interning here instead would grow
// the key table by one entry per distinct query element for the life of the
// process.
func lookupKey(dict *tokens.Dictionary, e *Element, mode TokenMode) tokens.ID {
	k := ElementKey(e, mode)
	if k == "" {
		return NoKey
	}
	if id, ok := dict.Keys().Lookup(k); ok {
		return id
	}
	return NoKey
}

// Set is an ordered list of elements with an external name.
type Set struct {
	Name     string
	Elements []Element
}

// Size returns the number of elements in the set.
func (s *Set) Size() int { return len(s.Elements) }

// Collection is a tokenized list of sets sharing one dictionary.
type Collection struct {
	Sets []Set
	Dict *tokens.Dictionary
	Mode TokenMode
	// Q is the gram length used under ModeQGram, 0 under ModeWord.
	Q int
}

// RawSet is an untokenized set: a name plus raw element strings.
type RawSet struct {
	Name     string
	Elements []string
}

// keyFunc resolves an element's content key: internKey for indexed
// collections, lookupKey for query collections.
type keyFunc func(*tokens.Dictionary, *Element, TokenMode) tokens.ID

// BuildWord tokenizes raw sets by whitespace words for Jaccard similarity.
// All sets share the dictionary dict; pass a fresh dictionary for a new
// corpus, or the dictionary of an existing collection to tokenize query sets
// against it (prefer BuildQuery for query sets — it keeps the key table
// from growing).
func BuildWord(dict *tokens.Dictionary, raws []RawSet) *Collection {
	return buildWord(dict, raws, internKey)
}

func buildWord(dict *tokens.Dictionary, raws []RawSet, key keyFunc) *Collection {
	c := &Collection{Dict: dict, Mode: ModeWord}
	c.Sets = make([]Set, len(raws))
	for i, rs := range raws {
		elems := make([]Element, len(rs.Elements))
		for j, e := range rs.Elements {
			ids := tokens.SortUnique(tokens.InternAll(dict, tokens.Words(e)))
			elems[j] = Element{
				Raw:    e,
				Tokens: ids,
				Length: int32(len(ids)),
			}
			elems[j].Key = key(dict, &elems[j], ModeWord)
		}
		c.Sets[i] = Set{Name: rs.Name, Elements: elems}
	}
	return c
}

// BuildQGram tokenizes raw sets into q-grams (index tokens) and q-chunks
// (signature tokens) for edit similarity. q must be positive.
func BuildQGram(dict *tokens.Dictionary, raws []RawSet, q int) *Collection {
	return buildQGram(dict, raws, q, internKey)
}

func buildQGram(dict *tokens.Dictionary, raws []RawSet, q int, key keyFunc) *Collection {
	if q <= 0 {
		panic("dataset: BuildQGram requires q > 0")
	}
	c := &Collection{Dict: dict, Mode: ModeQGram, Q: q}
	c.Sets = make([]Set, len(raws))
	for i, rs := range raws {
		elems := make([]Element, len(rs.Elements))
		for j, e := range rs.Elements {
			grams := tokens.SortUnique(tokens.InternAll(dict, tokens.QGrams(e, q)))
			chunks := tokens.InternAll(dict, tokens.QChunks(e, q))
			elems[j] = Element{
				Raw:    e,
				Tokens: grams,
				Chunks: chunks,
				Length: int32(runeLen(e)),
			}
			elems[j].Key = key(dict, &elems[j], ModeQGram)
		}
		c.Sets[i] = Set{Name: rs.Name, Elements: elems}
	}
	return c
}

// Build tokenizes raw sets according to mode: BuildWord for ModeWord,
// BuildQGram for ModeQGram.
func Build(dict *tokens.Dictionary, raws []RawSet, mode TokenMode, q int) *Collection {
	if mode == ModeWord {
		return BuildWord(dict, raws)
	}
	return BuildQGram(dict, raws, q)
}

// BuildQuery tokenizes query sets against an existing collection's
// dictionary. It differs from Build in one way: element keys are looked up,
// never interned, so a steady stream of distinct queries cannot grow the
// key table for the life of the process (a key absent from the dictionary
// proves the element identical to nothing indexed, which is exactly what
// NoKey means to the reduction).
func BuildQuery(dict *tokens.Dictionary, raws []RawSet, mode TokenMode, q int) *Collection {
	if mode == ModeWord {
		return buildWord(dict, raws, lookupKey)
	}
	return buildQGram(dict, raws, q, lookupKey)
}

// Append tokenizes raws with c's dictionary and mode and appends the
// resulting sets to c, returning the index of the first appended set.
// Callers holding an inverted index over c must extend it afterwards
// (index.Inverted.AppendSets).
func Append(c *Collection, raws []RawSet) int {
	from := len(c.Sets)
	add := Build(c.Dict, raws, c.Mode, c.Q)
	c.Sets = append(c.Sets, add.Sets...)
	return from
}

// elementLength derives Element.Length from the element's content.
func elementLength(e *Element, mode TokenMode) int {
	if mode == ModeQGram {
		return runeLen(e.Raw)
	}
	return len(e.Tokens)
}

func runeLen(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// ElementKey returns the exact content key string for an element under the
// given mode, for the identical-element reduction of paper §5.3. Identical
// elements get equal keys; the empty key marks non-reducible (empty)
// elements. The hot path never calls this per pair: builders intern the
// string once at build time into Element.Key, and verification compares
// those dense ids instead.
func ElementKey(e *Element, mode TokenMode) string {
	if mode == ModeQGram {
		return e.Raw
	}
	if len(e.Tokens) == 0 {
		return ""
	}
	b := make([]byte, 0, len(e.Tokens)*4)
	for _, id := range e.Tokens {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}
