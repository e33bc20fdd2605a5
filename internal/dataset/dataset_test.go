package dataset

import (
	"slices"
	"strings"
	"testing"

	"silkmoth/internal/tokens"
)

func TestBuildWord(t *testing.T) {
	d := tokens.NewDictionary()
	c := BuildWord(d, []RawSet{
		{Name: "A", Elements: []string{"77 Mass Ave", "5th St"}},
		{Name: "B", Elements: []string{"77 5th St"}},
	})
	if len(c.Sets) != 2 {
		t.Fatalf("sets = %d, want 2", len(c.Sets))
	}
	if c.Mode != ModeWord || c.Q != 0 {
		t.Errorf("mode/q = %v/%d", c.Mode, c.Q)
	}
	a := c.Sets[0]
	if a.Name != "A" || a.Size() != 2 {
		t.Fatalf("set A malformed: %+v", a)
	}
	e := a.Elements[0]
	if len(e.Tokens) != 3 || c.Dir.Set(0)[0].Size != 3 || e.Raw != "77 Mass Ave" {
		t.Errorf("element = %+v", e)
	}
	// Shared dictionary: "77" in both sets should have the same id.
	id77, ok := d.Lookup("77")
	if !ok {
		t.Fatal("77 not interned")
	}
	found := false
	for _, id := range c.Sets[1].Elements[0].Tokens {
		if id == id77 {
			found = true
		}
	}
	if !found {
		t.Error("cross-set token sharing broken")
	}
	// Tokens must be sorted and unique.
	for i := 1; i < len(e.Tokens); i++ {
		if e.Tokens[i-1] >= e.Tokens[i] {
			t.Error("tokens not sorted-unique")
		}
	}
}

func TestBuildWordDuplicateWords(t *testing.T) {
	d := tokens.NewDictionary()
	c := BuildWord(d, []RawSet{{Name: "A", Elements: []string{"go go go"}}})
	e := c.Sets[0].Elements[0]
	if len(e.Tokens) != 1 || c.Dir.Set(0)[0].Size != 1 {
		t.Errorf("duplicate words should dedupe: %+v", e)
	}
}

func TestBuildQGram(t *testing.T) {
	d := tokens.NewDictionary()
	c := BuildQGram(d, []RawSet{{Name: "A", Elements: []string{"Database"}}}, 3)
	if c.Mode != ModeQGram || c.Q != 3 {
		t.Fatalf("mode/q = %v/%d", c.Mode, c.Q)
	}
	e := c.Sets[0].Elements[0]
	if got := c.Dir.Set(0)[0].Size; int(got) != len("Database") {
		t.Errorf("Length = %d, want rune length %d", got, len("Database"))
	}
	// 8 runes → 8 grams (some may collide after dedup) and ⌈8/3⌉ = 3 chunks.
	chunks := c.Sets[0].Chunks(0)
	if len(chunks) != 3 {
		t.Errorf("chunks = %d, want 3", len(chunks))
	}
	if len(e.Tokens) == 0 || len(e.Tokens) > 8 {
		t.Errorf("token count = %d", len(e.Tokens))
	}
	// Every chunk id must also be interned (chunks are q-length strings too).
	for _, ch := range chunks {
		if int(ch) >= d.Size() {
			t.Error("chunk id out of dictionary range")
		}
	}
}

func TestBuildQGramEmptyElement(t *testing.T) {
	d := tokens.NewDictionary()
	c := BuildQGram(d, []RawSet{{Name: "A", Elements: []string{""}}}, 3)
	e := c.Sets[0].Elements[0]
	if len(e.Tokens) != 0 || len(c.Sets[0].Chunks(0)) != 0 || c.Dir.Set(0)[0] != (DirEntry{Key: NoKey}) {
		t.Errorf("empty element should have no tokens: %+v", e)
	}
}

func TestBuildDispatch(t *testing.T) {
	d := tokens.NewDictionary()
	cw := Build(d, []RawSet{{Elements: []string{"a b"}}}, ModeWord, 0)
	if cw.Mode != ModeWord {
		t.Error("Build(ModeWord) dispatched wrong")
	}
	cq := Build(tokens.NewDictionary(), []RawSet{{Elements: []string{"ab"}}}, ModeQGram, 2)
	if cq.Mode != ModeQGram {
		t.Error("Build(ModeQGram) dispatched wrong")
	}
}

func TestElementKeyWordMode(t *testing.T) {
	d := tokens.NewDictionary()
	c := BuildWord(d, []RawSet{{Elements: []string{"x y", "y x", "x z", ""}}})
	es := c.Sets[0].Elements
	k0 := ElementKey(&es[0], ModeWord)
	k1 := ElementKey(&es[1], ModeWord)
	k2 := ElementKey(&es[2], ModeWord)
	k3 := ElementKey(&es[3], ModeWord)
	if k0 != k1 {
		t.Error("token-set-equal elements must share a key")
	}
	if k0 == k2 {
		t.Error("different elements must not share a key")
	}
	if k3 != "" {
		t.Error("empty element must have the empty key")
	}
	// The builder interns exactly these keys, staged in its own buffer.
	ents := c.Dir.Set(0)
	for i, k := range []string{k0, k1, k2} {
		if got := d.Keys().String(ents[i].Key); got != k {
			t.Errorf("element %d: interned key %q, ElementKey %q", i, got, k)
		}
	}
	if ents[3].Key != NoKey {
		t.Errorf("empty element key %d, want NoKey", ents[3].Key)
	}
}

func TestElementKeyQGramMode(t *testing.T) {
	e1 := Element{Raw: "abc"}
	e2 := Element{Raw: "abc"}
	e3 := Element{Raw: "abd"}
	if ElementKey(&e1, ModeQGram) != ElementKey(&e2, ModeQGram) {
		t.Error("equal strings must share a key")
	}
	if ElementKey(&e1, ModeQGram) == ElementKey(&e3, ModeQGram) {
		t.Error("different strings must not share a key")
	}
	empty := Element{Raw: ""}
	if ElementKey(&empty, ModeQGram) != "" {
		t.Error("empty string must have the empty key")
	}
}

func TestComputeStats(t *testing.T) {
	d := tokens.NewDictionary()
	c := BuildWord(d, []RawSet{
		{Elements: []string{"a b c", "d"}},
		{Elements: []string{"a b", "c d", "e f", "g"}},
	})
	st := ComputeStats(c)
	if st.NumSets != 2 || st.NumElements != 6 {
		t.Errorf("stats = %+v", st)
	}
	if st.ElemsPerSet != 3 {
		t.Errorf("ElemsPerSet = %v, want 3", st.ElemsPerSet)
	}
	// Total tokens = 3+1+2+2+2+1 = 11 over 6 elements.
	if st.TokensPerElem < 1.8 || st.TokensPerElem > 1.9 {
		t.Errorf("TokensPerElem = %v", st.TokensPerElem)
	}
	if st.MaxSetSize != 4 || st.MinSetSize != 2 {
		t.Errorf("set size range = [%d,%d]", st.MinSetSize, st.MaxSetSize)
	}
	if st.DistinctTokens != 7 {
		t.Errorf("DistinctTokens = %d, want 7", st.DistinctTokens)
	}
	if !strings.Contains(st.String(), "sets=2") {
		t.Errorf("String() = %q", st.String())
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	c := &Collection{Dict: tokens.NewDictionary()}
	st := ComputeStats(c)
	if st.NumSets != 0 || st.NumElements != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestTokenModeString(t *testing.T) {
	if ModeWord.String() != "word" || ModeQGram.String() != "qgram" {
		t.Error("TokenMode.String broken")
	}
	if TokenMode(99).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestAppend(t *testing.T) {
	dict := tokens.NewDictionary()
	c := BuildWord(dict, []RawSet{{Name: "A", Elements: []string{"x y"}}})
	from := Append(c, []RawSet{
		{Name: "B", Elements: []string{"x z"}},
		{Name: "C", Elements: []string{"fresh words"}},
	})
	if from != 1 || len(c.Sets) != 3 {
		t.Fatalf("from=%d len=%d", from, len(c.Sets))
	}
	// Shared tokens keep their ids; new tokens extend the dictionary.
	idX, ok := dict.Lookup("x")
	if !ok {
		t.Fatal("x missing")
	}
	foundX := false
	for _, id := range c.Sets[1].Elements[0].Tokens {
		if id == idX {
			foundX = true
		}
	}
	if !foundX {
		t.Error("appended set does not share dictionary ids")
	}
	if _, ok := dict.Lookup("fresh"); !ok {
		t.Error("new tokens not interned")
	}
	if err := c.CheckDirectory(); err != nil {
		t.Errorf("element table after Append: %v", err)
	}
}

// TestUsedMarksTokensChunksAndKeys pins what Collection.Used marks: element
// tokens, chunk ids — here ids no element holds as a token, which a build
// never makes, so that a chunk is marked for being a chunk — and element
// keys other than NoKey, of every set alive admits; never an id only a
// skipped set uses or one no set uses.
func TestUsedMarksTokensChunksAndKeys(t *testing.T) {
	d := tokens.NewDictionary()
	for _, w := range []string{"t0", "t1", "t2", "c3", "t4", "c5", "unused"} {
		d.Intern(w)
	}
	for _, k := range []string{"k0", "k1", "k2", "unused"} {
		d.Keys().Intern(k)
	}
	c := &Collection{Dict: d, Mode: ModeQGram, Q: 2, Sets: []Set{
		{Elements: []Element{{Tokens: []tokens.ID{0, 1}}, {Tokens: []tokens.ID{2}}},
			chunks: []tokens.ID{3, 3, 3}}, // element 0's chunk is id 3
		{Elements: []Element{{Tokens: []tokens.ID{4}}}, chunks: []tokens.ID{2, 5}},
		{Elements: []Element{{Tokens: []tokens.ID{1}}}},
	}, Dir: Directory{base: []int32{0, 2, 3, 4}, ents: []DirEntry{{Key: 0}, {Key: NoKey}, {Key: 1}, {Key: 2}}}}
	for _, tc := range []struct {
		name       string
		alive      func(int) bool
		toks, keys []bool
	}{
		{"all", nil,
			[]bool{true, true, true, true, true, true, false}, []bool{true, true, true, false}},
		{"set 1 dead", func(i int) bool { return i != 1 },
			[]bool{true, true, true, true, false, false, false}, []bool{true, false, true, false}},
	} {
		toks, keys := c.Used(tc.alive)
		if !slices.Equal(toks, tc.toks) || !slices.Equal(keys, tc.keys) {
			t.Errorf("%s: Used = tokens %v keys %v, want %v %v", tc.name, toks, keys, tc.toks, tc.keys)
		}
	}
}
