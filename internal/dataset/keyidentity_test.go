package dataset

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"silkmoth/internal/tokens"
)

// keyRaws turns fuzz bytes into raw sets over a five-word alphabet, so that
// elements repeat their content — the same words in another order or with
// repeats, which is the same token set under ModeWord and another Raw
// under ModeQGram — across sets and within one.
func keyRaws(data []byte) []RawSet {
	var raws []RawSet
	var set []string
	var el []string
	endElem := func() {
		set = append(set, strings.Join(el, " "))
		el = el[:0]
	}
	endSet := func() {
		raws = append(raws, RawSet{Name: "s", Elements: set})
		set = nil
	}
	for _, b := range data {
		switch k := b % 16; {
		case k < 10:
			el = append(el, string(rune('a'+k%5)))
		case k < 13:
			endElem()
		default:
			endElem()
			endSet()
		}
	}
	endElem()
	endSet()
	return raws
}

// elementContent is what a key stands for: the set of token strings under
// ModeWord, Raw under ModeQGram. The empty string is the content of an
// element that has no key.
func elementContent(c *Collection, e *Element) string {
	if c.Mode == ModeQGram {
		return e.Raw
	}
	words := make([]string, len(e.Tokens))
	for i, id := range e.Tokens {
		words[i] = c.Dict.String(id)
	}
	slices.Sort(words)
	return strings.Join(words, "\x00")
}

// requireKeyIdentity fails unless, over c's element table, equal keys are
// identical content and identical content equal keys, and NoKey is exactly
// the empty content; the table must also match c (CheckDirectory). It
// returns the map from content to key.
func requireKeyIdentity(t *testing.T, stage string, c *Collection) map[string]tokens.ID {
	t.Helper()
	if err := c.CheckDirectory(); err != nil {
		t.Fatalf("%v %s: %v", c.Mode, stage, err)
	}
	keyOf := map[string]tokens.ID{}
	contentOf := map[tokens.ID]string{}
	for i := range c.Sets {
		for j := range c.Sets[i].Elements {
			content, key := elementContent(c, &c.Sets[i].Elements[j]), c.Dir.Set(int32(i))[j].Key
			if (content == "") != (key == NoKey) {
				t.Fatalf("%v %s: set %d element %d of content %q has key %d", c.Mode, stage, i, j, content, key)
			}
			if key == NoKey {
				continue
			}
			if k, ok := keyOf[content]; ok && k != key {
				t.Fatalf("%v %s: content %q has keys %d and %d", c.Mode, stage, content, k, key)
			}
			if s, ok := contentOf[key]; ok && s != content {
				t.Fatalf("%v %s: key %d stands for %q and %q", c.Mode, stage, key, s, content)
			}
			keyOf[content], contentOf[key] = key, content
		}
	}
	return keyOf
}

// checkElementKeyIdentity drives one corpus through every way a collection
// gets its keys — BuildRanges at 1, 2 and 7 parts, Append, a compaction
// that frees and recycles key ids, a snapshot save and load — checking key
// identity after each, and then looks the corpus up with QueryScratch: a
// query element must get the key of the indexed element of identical
// content, or NoKey when there is none.
func checkElementKeyIdentity(t *testing.T, data []byte) {
	raws := keyRaws(data)
	for _, mode := range []TokenMode{ModeWord, ModeQGram} {
		q := 0
		if mode == ModeQGram {
			q = 2
		}
		var c *Collection
		for _, parts := range []int{1, 2, 7} {
			c = BuildRanges(tokens.NewDictionary(), raws, mode, q, parts)
			requireKeyIdentity(t, "build", c)
		}
		Append(c, raws[len(raws)/2:])
		requireKeyIdentity(t, "append", c)

		dead := make([]bool, len(c.Sets))
		for i := range dead {
			dead[i] = i%3 == 0
		}
		c.DropSets(dead)
		toks, keys := c.Used(nil)
		c.Dict.Reclaim(toks)
		c.Dict.Keys().Reclaim(keys)
		requireKeyIdentity(t, "compaction", c)
		Append(c, keyRaws(append(slices.Clone(data), 0x2a, 0x1b)))
		keyOf := requireKeyIdentity(t, "append after compaction", c)

		var buf bytes.Buffer
		if err := SaveSnapshot(&buf, &SnapshotData{Coll: c}); err != nil {
			t.Fatal(err)
		}
		snap, err := LoadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		requireKeyIdentity(t, "snapshot load", snap.Coll)

		var qs QueryScratch
		query := append(keyRaws(data[len(data)/2:]), raws...)
		for range 2 { // a reused scratch answers alike
			qc := qs.Build(c.Dict, query, mode, q)
			for i := range qc.Sets {
				for j := range qc.Sets[i].Elements {
					content := elementContent(c, &qc.Sets[i].Elements[j])
					want, ok := keyOf[content]
					if !ok {
						want = NoKey
					}
					if got := qc.Dir.Set(int32(i))[j].Key; got != want {
						t.Fatalf("%v query set %d element %d of content %q: key %d, want %d", mode, i, j, content, got, want)
					}
				}
			}
		}
	}
}

// FuzzElementKeyIdentity checks that equal element keys are exactly
// identical content on whatever corpus the fuzzer makes
// (checkElementKeyIdentity).
func FuzzElementKeyIdentity(f *testing.F) {
	f.Add([]byte{0, 1, 10, 1, 0, 13, 0, 1, 1, 10, 2, 14, 5, 0, 11})
	f.Add([]byte("abc de\x0c f\x0f"))
	f.Add([]byte{})
	f.Fuzz(checkElementKeyIdentity)
}

// TestElementKeyIdentity is FuzzElementKeyIdentity's seeded twin: random
// corpora of a few dozen elements each, run by every go test.
func TestElementKeyIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for range 200 {
		data := make([]byte, r.Intn(120))
		r.Read(data)
		checkElementKeyIdentity(t, data)
	}
}
