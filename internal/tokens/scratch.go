package tokens

import (
	"unicode"
	"unicode/utf8"
)

// Scratch holds reusable tokenization buffers for the collection builders
// and the query path. The slice-returning tokenizers (Words, QGrams,
// QChunks) allocate a string per token plus the token slice itself; they
// remain the plain statement of what a token stream is. The Append*IDs
// methods produce the same token streams as InternAll(dict, Words/QGrams/
// QChunks(...)) while staging every token in the scratch's buffers, so a
// warmed-up scratch tokenizes with zero allocations as long as every token
// is already interned (a first-time token is copied into its table's
// arena, which allocates only when the table grows). They intern into any
// Interner: a Dictionary, a builder range's Table, or a query's read-only
// Query.
//
// A Scratch is not safe for concurrent use; pool one per worker.
type Scratch struct {
	runes []rune // decoded + padded element runes
	gram  []byte // UTF-8 encoding of the current gram/chunk
	ids   []ID   // staging for pre-dedup token ids
}

// AppendWordIDs appends the interned id of each whitespace-separated word
// of s — the token stream of InternAll(d, Words(s)) — to dst and returns
// the extended slice. Word boundaries follow unicode.IsSpace, matching
// strings.Fields.
//
//silkmoth:hotpath
func (sc *Scratch) AppendWordIDs(dst []ID, d Interner, s string) []ID {
	start := -1 // start of the current word, -1 while in whitespace
	for i, c := range s {
		if unicode.IsSpace(c) {
			if start >= 0 {
				dst = append(dst, d.Intern(s[start:i]))
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, d.Intern(s[start:]))
	}
	return dst
}

// AppendQGramIDs appends the interned id of each q-gram of s — the token
// stream of InternAll(d, QGrams(s, q)) — to dst and returns the extended
// slice. q must be positive.
//
//silkmoth:hotpath
func (sc *Scratch) AppendQGramIDs(dst []ID, d Interner, s string, q int) []ID {
	if q <= 0 {
		panic("tokens: AppendQGramIDs requires q > 0")
	}
	r := sc.padded(s, q)
	n := len(r) - q + 1
	for i := 0; i < n; i++ {
		dst = append(dst, d.InternBytes(sc.encode(r[i:i+q])))
	}
	return dst
}

// AppendQChunkIDs appends the interned id of each q-chunk of s — the token
// stream of InternAll(d, QChunks(s, q)) — to dst and returns the extended
// slice. q must be positive.
//
//silkmoth:hotpath
func (sc *Scratch) AppendQChunkIDs(dst []ID, d Interner, s string, q int) []ID {
	if q <= 0 {
		panic("tokens: AppendQChunkIDs requires q > 0")
	}
	r := sc.padded(s, q)
	n := len(r) - q + 1
	if n <= 0 {
		return dst
	}
	numChunks := (n + q - 1) / q
	for i := 0; i < numChunks; i++ {
		dst = append(dst, d.InternBytes(sc.encode(r[i*q:i*q+q])))
	}
	return dst
}

// padded stages the runes of s followed by q-1 Pad runes in the scratch
// rune buffer.
//
//silkmoth:hotpath
func (sc *Scratch) padded(s string, q int) []rune {
	r := sc.runes[:0]
	for _, c := range s {
		r = append(r, c)
	}
	if len(s) > 0 {
		for i := 0; i < q-1; i++ {
			r = append(r, Pad)
		}
	}
	sc.runes = r
	return r
}

// encode stages the UTF-8 encoding of rs in the scratch byte buffer. The
// encoding matches string(rs) exactly, including the U+FFFD replacement of
// invalid runes, so InternBytes sees the same key QGrams would intern.
//
//silkmoth:hotpath
func (sc *Scratch) encode(rs []rune) []byte {
	b := sc.gram[:0]
	for _, c := range rs {
		b = utf8.AppendRune(b, c)
	}
	sc.gram = b
	return b
}
