package tokens

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestInternTableFootprintGate pins what the key table costs beyond the
// bytes of its keys on a word-mode corpus — each element's key being the
// uvarint deltas of its sorted token ids, as dataset interns them — and
// that the table's arena, spans and index hold no pointer, so the garbage
// collector never scans them. The bounds are 24 bytes a key at most: 8 for
// the span, at most 10.7 for the index at its lowest load, the rest for
// the slack of append growth; and 13.3 at least, the span and the index at
// its highest load, below which the measurement itself is broken.
func TestInternTableFootprintGate(t *testing.T) {
	d := NewDictionary()
	var sc Scratch
	r := rand.New(rand.NewSource(1))
	vocab := rand.NewZipf(r, 1.1, 1, 30000)
	var ids []ID
	var key []byte
	var text strings.Builder
	keyBytes := 0
	for e := 0; e < 80000; e++ {
		text.Reset()
		for w := 1 + r.Intn(6); w > 0; w-- {
			fmt.Fprintf(&text, "w%d ", vocab.Uint64())
		}
		ids = SortUnique(sc.AppendWordIDs(ids[:0], d, text.String()))
		key, prev := key[:0], ID(0)
		for _, id := range ids {
			key = binary.AppendUvarint(key, uint64(id-prev))
			prev = id
		}
		if n := d.Keys().Size(); d.Keys().InternBytes(key) == ID(n) {
			keyBytes += len(key)
		}
	}
	k := &d.Keys().Table
	n := k.Size()
	held := cap(k.arena) + cap(k.spans)*int(unsafe.Sizeof(span{})) + cap(k.index)*4 + cap(k.free)*4
	per := float64(held-keyBytes) / float64(n)
	t.Logf("%d keys of %d bytes: the table holds %d bytes, %.1f a key beyond the keys", n, keyBytes, held, per)
	if n < 40000 || per > 24 || per < 8+4.0/0.75 {
		t.Errorf("the key table holds %.1f bytes a key beyond the keys' own over %d keys, want 13.3 to 24", per, n)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(k.arena), reflect.TypeOf(k.spans), reflect.TypeOf(k.index)} {
		if !pointerFree(typ.Elem()) {
			t.Errorf("%v holds pointers: the garbage collector scans it", typ)
		}
	}
}

// pointerFree reports whether a value of typ holds no pointer.
func pointerFree(typ reflect.Type) bool {
	switch k := typ.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128:
		return true
	case k == reflect.Array:
		return pointerFree(typ.Elem())
	case k == reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}
