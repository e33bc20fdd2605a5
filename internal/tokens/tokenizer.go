package tokens

import (
	"slices"
	"strings"
)

// Pad is the special rune appended q-1 times to the end of a string before
// q-gram and q-chunk extraction, per footnote 3 of the paper. It is a
// non-printing control character that should not occur in real data.
const Pad rune = '\x1f'

// Words splits s on whitespace and returns the resulting word tokens.
// Consecutive whitespace is collapsed; an all-whitespace string yields nil.
func Words(s string) []string {
	return strings.Fields(s)
}

// QGrams returns every q-length substring of s after padding the end of s
// with q-1 Pad runes, so a string of n runes yields exactly n q-grams
// (n ≥ 1). The empty string yields no q-grams. q must be positive.
func QGrams(s string, q int) []string {
	if q <= 0 {
		panic("tokens: QGrams requires q > 0")
	}
	r := padded(s, q)
	n := len(r) - q + 1 // == rune length of s, or 0 for empty s
	if n <= 0 {
		return nil
	}
	grams := make([]string, n)
	for i := 0; i < n; i++ {
		grams[i] = string(r[i : i+q])
	}
	return grams
}

// QChunks returns the ⌈n/q⌉ non-overlapping q-length substrings that cover
// the padded string, where n is the rune length of s (paper §7.1). The empty
// string yields no chunks. q must be positive.
func QChunks(s string, q int) []string {
	if q <= 0 {
		panic("tokens: QChunks requires q > 0")
	}
	r := padded(s, q)
	n := len(r) - q + 1
	if n <= 0 {
		return nil
	}
	numChunks := (n + q - 1) / q
	chunks := make([]string, numChunks)
	for i := 0; i < numChunks; i++ {
		chunks[i] = string(r[i*q : i*q+q])
	}
	return chunks
}

// NumQChunks returns the number of q-chunks of a string of n runes, ⌈n/q⌉.
func NumQChunks(n, q int) int {
	if n <= 0 {
		return 0
	}
	return (n + q - 1) / q
}

// padded returns the runes of s followed by q-1 Pad runes.
func padded(s string, q int) []rune {
	r := make([]rune, 0, len(s)+q-1)
	r = append(r, []rune(s)...)
	for i := 0; i < q-1; i++ {
		r = append(r, Pad)
	}
	return r
}

// InternAll interns each string of ss and returns the ids in order,
// including duplicates.
func InternAll(d Interner, ss []string) []ID {
	ids := make([]ID, len(ss))
	for i, s := range ss {
		ids[i] = d.Intern(s)
	}
	return ids
}

// SortUnique sorts ids in place and returns the slice with duplicates
// removed. The returned slice aliases the input. It allocates nothing:
// slices.Sort specializes on the ordered element type, unlike the
// reflection-based sort.Slice it replaced, whose closure and interface
// header escaped to the heap on every call.
func SortUnique(ids []ID) []ID {
	if len(ids) <= 1 {
		return ids
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}
