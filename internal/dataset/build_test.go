package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"silkmoth/internal/tokens"
)

// serialBuild is the plain statement of what every build produces: the
// slice tokenizers interned set after set, element after element (q-grams
// before q-chunks), each element's ids sorted and deduplicated, and each
// element's content key interned right after its tokens.
func serialBuild(dict *tokens.Dictionary, raws []RawSet, mode TokenMode, q int) *Collection {
	c := &Collection{Dict: dict, Mode: mode, Sets: make([]Set, len(raws))}
	if mode == ModeQGram {
		c.Q = q
	}
	c.Dir = layoutDirectory(len(raws), func(i int) int { return len(raws[i].Elements) })
	for i, rs := range raws {
		s := Set{Name: rs.Name, Elements: make([]Element, len(rs.Elements))}
		var chunks []tokens.ID
		for j, raw := range rs.Elements {
			el := &s.Elements[j]
			el.Raw = raw
			if mode == ModeWord {
				el.Tokens = tokens.InternAll(dict, tokens.Words(raw))
			} else {
				el.Tokens = tokens.InternAll(dict, tokens.QGrams(raw, q))
				chunks = append(chunks, tokens.InternAll(dict, tokens.QChunks(raw, q))...)
			}
			if el.Tokens = tokens.SortUnique(el.Tokens); len(el.Tokens) == 0 {
				el.Tokens = nil
			}
			ent := &c.Dir.Set(int32(i))[j]
			ent.Size, ent.Key = int32(el.Length(mode)), NoKey
			if k := ElementKey(el, mode); k != "" {
				ent.Key = dict.Keys().Intern(k)
			}
			if mode == ModeQGram {
				s.chunks = append(s.chunks, tokens.ID(len(chunks)))
			}
		}
		if len(chunks) == 0 {
			s.chunks = nil
		}
		for j := range s.chunks {
			s.chunks[j] += tokens.ID(len(s.chunks))
		}
		s.chunks = append(s.chunks, chunks...)
		c.Sets[i] = s
	}
	return c
}

// warmDict returns a dictionary that already holds tokens and keys, with
// reclaimed slots on both tables, so that a build must reuse freed ids in
// the order a serial build does before it grows either table.
func warmDict() *tokens.Dictionary {
	d := tokens.NewDictionary()
	for _, w := range []string{"a", "zz", "old", "b c", "x y", "ab"} {
		d.Intern(w)
		d.Keys().Intern(w)
	}
	d.Reclaim([]bool{true, false, true, false, true, false})
	d.Keys().Reclaim([]bool{true, false, false, true, true, true})
	return d
}

// requireSameBuild checks got against want set for set and both
// dictionaries id for id, tokens and keys.
func requireSameBuild(t *testing.T, label string, got, want *Collection) {
	t.Helper()
	if !reflect.DeepEqual(got.Sets, want.Sets) {
		for i := range want.Sets {
			if i >= len(got.Sets) || !reflect.DeepEqual(got.Sets[i], want.Sets[i]) {
				t.Fatalf("%s: set %d = %+v, serial build %+v", label, i, got.Sets[i], want.Sets[i])
			}
		}
		t.Fatalf("%s: %d sets, serial build %d", label, len(got.Sets), len(want.Sets))
	}
	if got.Mode != want.Mode || got.Q != want.Q {
		t.Fatalf("%s: mode %v q %d, serial build %v q %d", label, got.Mode, got.Q, want.Mode, want.Q)
	}
	for _, tab := range []struct {
		name      string
		got, want *tokens.Dictionary
	}{
		{"token", got.Dict, want.Dict},
		{"key", got.Dict.Keys(), want.Dict.Keys()},
	} {
		if tab.got.Size() != tab.want.Size() || tab.got.FreeSlots() != tab.want.FreeSlots() {
			t.Fatalf("%s: %s table holds %d ids (%d free), serial build %d (%d free)",
				label, tab.name, tab.got.Size(), tab.got.FreeSlots(), tab.want.Size(), tab.want.FreeSlots())
		}
		for id := range tab.want.Size() {
			if g, w := tab.got.String(tokens.ID(id)), tab.want.String(tokens.ID(id)); g != w {
				t.Fatalf("%s: %s %d is %q, serial build %q", label, tab.name, id, g, w)
			}
		}
	}
}

// rangesCorpus is n sets over a small vocabulary with what a build must
// get right at every width: empty sets, empty and blank elements, a word
// repeated in one element, Unicode whitespace, and words first seen late.
func rangesCorpus(n int, seed int64) []RawSet {
	rng := rand.New(rand.NewSource(seed))
	spaces := []string{" ", "  ", "\t", " ", " ", "　", "\n"}
	raws := make([]RawSet, n)
	for i := range raws {
		es := make([]string, rng.Intn(6))
		for j := range es {
			var b strings.Builder
			for k := range rng.Intn(5) {
				if k > 0 || rng.Intn(4) == 0 {
					b.WriteString(spaces[rng.Intn(len(spaces))])
				}
				// Later sets draw from a wider vocabulary, so every range
				// meets words no earlier range has.
				fmt.Fprintf(&b, "w%d", rng.Intn(20+i*3))
			}
			es[j] = b.String()
		}
		raws[i] = RawSet{Name: fmt.Sprintf("S%d", i), Elements: es}
	}
	raws = append(raws,
		RawSet{Name: "empty"},
		RawSet{Name: "blank", Elements: []string{"", "   ", " "}},
		RawSet{Name: "repeat", Elements: []string{"a b a", "zz zz zz", "w1 w1"}},
		RawSet{Name: "unicode", Elements: []string{"x y z", "　lead trail ", "héllo wörld"}},
	)
	return raws
}

// TestBuildRangesMatchSerial holds BuildRanges at 1, 2, 3 and 7 ranges,
// and Build, to the serial statement of a build under both modes: the same
// sets and the same token and key ids, over a fresh dictionary and over one
// that already holds tokens and reclaimed slots, and with fewer sets than
// ranges.
func TestBuildRangesMatchSerial(t *testing.T) {
	corpora := map[string][]RawSet{
		"corpus":     rangesCorpus(60, 1),
		"few sets":   {{Name: "a", Elements: []string{"p q", ""}}, {Name: "b", Elements: []string{"q r r"}}},
		"one set":    {{Name: "a", Elements: []string{"p q p"}}},
		"no sets":    nil,
		"only empty": {{Name: "e"}, {Name: "f", Elements: []string{""}}},
	}
	for name, raws := range corpora {
		for _, mode := range []TokenMode{ModeWord, ModeQGram} {
			for _, dict := range []struct {
				name string
				new  func() *tokens.Dictionary
			}{{"fresh", tokens.NewDictionary}, {"warm", warmDict}} {
				q := 0
				if mode == ModeQGram {
					q = 3
				}
				want := serialBuild(dict.new(), raws, mode, q)
				label := fmt.Sprintf("%s/%v/%s", name, mode, dict.name)
				requireSameBuild(t, label+"/Build", Build(dict.new(), raws, mode, q), want)
				for _, parts := range []int{1, 2, 3, 7} {
					got := BuildRanges(dict.new(), raws, mode, q, parts)
					requireSameBuild(t, fmt.Sprintf("%s/ranges=%d", label, parts), got, want)
				}
			}
		}
	}
}

// FuzzBuildRanges holds BuildRanges to the serial build on arbitrary
// input: lines are sets, '|' separates elements, and the first two bytes
// pick the number of ranges and the gram length.
func FuzzBuildRanges(f *testing.F) {
	f.Add([]byte("\x03\x02a b|b c\n|\nc d d| e\n\nf g|a\n"))
	f.Add([]byte("\x07\x01x\ny\nz"))
	f.Add([]byte("\x02\x03\xff\xfe|\xc3\x28 a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		parts, q := 1+int(data[0])%8, 1+int(data[1])%4
		var raws []RawSet
		for i, line := range strings.Split(string(data[2:]), "\n") {
			if i == 64 {
				break // keep an iteration cheap
			}
			rs := RawSet{Name: fmt.Sprint(i)}
			if line != "" {
				rs.Elements = strings.Split(line, "|")
			}
			raws = append(raws, rs)
		}
		for _, mode := range []TokenMode{ModeWord, ModeQGram} {
			want := serialBuild(warmDict(), raws, mode, q)
			got := BuildRanges(warmDict(), raws, mode, q, parts)
			requireSameBuild(t, fmt.Sprintf("%v/ranges=%d", mode, parts), got, want)
		}
	})
}
