package tokens

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"77 Mass Ave Boston MA", []string{"77", "Mass", "Ave", "Boston", "MA"}},
		{"  leading and   trailing  ", []string{"leading", "and", "trailing"}},
		{"", nil},
		{"   ", nil},
		{"single", []string{"single"}},
		{"tab\tseparated\nlines", []string{"tab", "separated", "lines"}},
	}
	for _, c := range cases {
		got := Words(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestQGramsPaperExample(t *testing.T) {
	// Paper §3: the 4-grams of "50 Vassar St MA" start with "50 V", "0 Va", ...
	got := QGrams("50 Vassar St MA", 4)
	if got[0] != "50 V" || got[1] != "0 Va" {
		t.Fatalf("QGrams paper example: got %q, %q", got[0], got[1])
	}
	// n runes yield exactly n q-grams.
	if len(got) != len("50 Vassar St MA") {
		t.Fatalf("QGrams count = %d, want %d", len(got), len("50 Vassar St MA"))
	}
}

func TestQGramsPadding(t *testing.T) {
	got := QGrams("ab", 3)
	want := []string{"ab" + string(Pad), "b" + string(Pad) + string(Pad)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams(ab, 3) = %q, want %q", got, want)
	}
}

func TestQGramsEmpty(t *testing.T) {
	if got := QGrams("", 3); got != nil {
		t.Errorf("QGrams(\"\", 3) = %v, want nil", got)
	}
}

func TestQGramsQ1(t *testing.T) {
	got := QGrams("abc", 1)
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams(abc, 1) = %v, want %v", got, want)
	}
}

func TestQChunks(t *testing.T) {
	// "abcde" with q=2: padded "abcde\x1f", chunks "ab", "cd", "e\x1f".
	got := QChunks("abcde", 2)
	want := []string{"ab", "cd", "e" + string(Pad)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QChunks(abcde, 2) = %q, want %q", got, want)
	}
	if len(got) != NumQChunks(5, 2) {
		t.Errorf("NumQChunks mismatch: %d vs %d", len(got), NumQChunks(5, 2))
	}
}

func TestQChunksExactMultiple(t *testing.T) {
	got := QChunks("abcdef", 3)
	want := []string{"abc", "def"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QChunks(abcdef, 3) = %q, want %q", got, want)
	}
}

func TestQChunksEmpty(t *testing.T) {
	if got := QChunks("", 4); got != nil {
		t.Errorf("QChunks(\"\", 4) = %v, want nil", got)
	}
	if NumQChunks(0, 4) != 0 {
		t.Error("NumQChunks(0, 4) != 0")
	}
}

func TestQChunksUnicode(t *testing.T) {
	got := QChunks("héllo", 2) // 5 runes
	if len(got) != 3 {
		t.Fatalf("QChunks rune handling: got %d chunks, want 3", len(got))
	}
	if got[0] != "hé" {
		t.Errorf("first chunk = %q, want %q", got[0], "hé")
	}
}

// Property: chunks are a subset of grams (every chunk appears among the
// grams at its own offset), and concatenated chunks re-cover the padded
// string.
func TestQChunkGramRelationProperty(t *testing.T) {
	f := func(s string, qRaw uint8) bool {
		q := int(qRaw%5) + 1
		s = strings.ReplaceAll(s, string(Pad), "")
		grams := QGrams(s, q)
		chunks := QChunks(s, q)
		gramSet := make(map[string]bool, len(grams))
		for _, g := range grams {
			gramSet[g] = true
		}
		// Every chunk except possibly ones overlapping the pad tail must be a
		// gram; chunks that contain pad runes may extend past the last gram.
		for i, c := range chunks {
			if i*q < len(grams) {
				if grams[i*q] != c {
					return false
				}
			}
			_ = gramSet
		}
		joined := strings.Join(chunks, "")
		runes := []rune(s)
		if len(runes) > 0 && !strings.HasPrefix(joined, string(runes)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: number of q-grams equals the rune length of the input.
func TestQGramCountProperty(t *testing.T) {
	f := func(s string, qRaw uint8) bool {
		q := int(qRaw%6) + 1
		s = strings.ReplaceAll(s, string(Pad), "")
		return len(QGrams(s, q)) == len([]rune(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDictionaryIntern(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	a2 := d.Intern("alpha")
	if a != a2 {
		t.Errorf("re-interning returned different id: %d vs %d", a, a2)
	}
	if a == b {
		t.Error("distinct strings share an id")
	}
	if d.Size() != 2 {
		t.Errorf("Size = %d, want 2", d.Size())
	}
	if d.String(a) != "alpha" || d.String(b) != "beta" {
		t.Error("String roundtrip failed")
	}
	if a != 0 || b != 1 || d.Intern("beta") != b || d.Size() != 2 {
		t.Errorf("ids %d, %d and Size %d after re-interning; want 0, 1 and 2", a, b, d.Size())
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup of unknown string reported ok")
	}
	if id, ok := d.Lookup("beta"); !ok || id != b {
		t.Error("Lookup of known string failed")
	}
}

func TestDictionaryDenseIDs(t *testing.T) {
	d := NewDictionary()
	for i := 0; i < 100; i++ {
		id := d.Intern(strings.Repeat("x", i+1))
		if int(id) != i {
			t.Fatalf("ids are not dense: got %d at step %d", id, i)
		}
	}
}

func TestInternAll(t *testing.T) {
	d := NewDictionary()
	ids := InternAll(d, []string{"a", "b", "a"})
	if len(ids) != 3 || ids[0] != ids[2] || ids[0] == ids[1] {
		t.Errorf("InternAll = %v", ids)
	}
}

func TestSortUnique(t *testing.T) {
	got := SortUnique([]ID{5, 3, 5, 1, 3, 1, 1})
	want := []ID{1, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortUnique = %v, want %v", got, want)
	}
	if SortUnique(nil) != nil {
		t.Error("SortUnique(nil) != nil")
	}
	one := SortUnique([]ID{7})
	if len(one) != 1 || one[0] != 7 {
		t.Errorf("SortUnique single = %v", one)
	}
}

// Property: SortUnique output is sorted, duplicate-free, and preserves the
// input's value set.
func TestSortUniqueProperty(t *testing.T) {
	f := func(raw []int16) bool {
		in := make([]ID, len(raw))
		set := make(map[ID]bool)
		for i, v := range raw {
			in[i] = ID(v)
			set[ID(v)] = true
		}
		out := SortUnique(in)
		if len(out) != len(set) {
			return false
		}
		for i, v := range out {
			if !set[v] {
				return false
			}
			if i > 0 && out[i-1] >= v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
