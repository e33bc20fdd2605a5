// Package binenc provides the small varint-based binary encoding shared by
// the snapshot format (internal/dataset) and the WAL record codec
// (internal/wal). The decoder is written for hostile input: every length
// field is validated against the bytes actually present before any
// allocation, so arbitrary or bit-flipped payloads fail with an error —
// never a panic or an attacker-sized allocation.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrCorrupt is the sentinel wrapped by every decoder error.
var ErrCorrupt = errors.New("binenc: corrupt input")

// Writer accumulates an encoded payload in memory. The zero value is ready
// to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// Grow makes room for n more bytes, so that a payload whose size is known,
// or bounded, up front is encoded into one allocation.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Uvarint appends v in unsigned varint form.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Uint appends a non-negative int as a uvarint.
func (w *Writer) Uint(v int) { w.Uvarint(uint64(v)) }

// String appends s as a uvarint length followed by its bytes.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// StringBytes is String for bytes: it appends b as a uvarint length
// followed by b, what Reader.StringBytes reads back.
func (w *Writer) StringBytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Reader decodes a payload produced by Writer. Methods record the first
// error and become no-ops afterwards; callers check Err once at the end
// (or after any value that gates further control flow).
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// Uvarint decodes one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Uint decodes a uvarint that must fit in a non-negative int.
func (r *Reader) Uint() int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(int(^uint(0)>>1)) {
		r.fail("uvarint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count decodes a uvarint element count where each element occupies at
// least minBytes of the remaining payload, rejecting counts the input
// cannot possibly back — the cap that keeps hostile length fields from
// driving allocations.
func (r *Reader) Count(minBytes int) int {
	n := r.Uint()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > r.Remaining()/minBytes {
		r.fail("count %d exceeds remaining %d bytes", n, r.Remaining())
		return 0
	}
	return n
}

// String decodes a uvarint-length-prefixed string.
func (r *Reader) String() string { return string(r.StringBytes()) }

// StringBytes decodes a uvarint-length-prefixed string without copying it:
// the result aliases the reader's buffer.
func (r *Reader) StringBytes() []byte {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > r.Remaining() {
		r.fail("string length %d exceeds remaining %d bytes", n, r.Remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("unexpected end of input")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}
