package index

import (
	"fmt"
	"slices"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/paperdata"
	"silkmoth/internal/tokens"
)

func buildPaperIndex(t *testing.T) (*Inverted, *dataset.Collection, *tokens.Dictionary) {
	t.Helper()
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, paperdata.CollectionS())
	return Build(coll), coll, dict
}

// The paper's Example 7 gives the exact inverted list lengths for tokens
// t1..t12 over the collection S of Table 2: 9, 8, 7, 6, 6, 6, 5, 3, 3, 1, 1, 1.
func TestPaperExample7ListLengths(t *testing.T) {
	ix, _, dict := buildPaperIndex(t)
	want := map[string]int{
		"t1": 9, "t2": 8, "t3": 7, "t4": 6, "t5": 6, "t6": 6,
		"t7": 5, "t8": 3, "t9": 3, "t10": 1, "t11": 1, "t12": 1,
	}
	for label, n := range want {
		id, ok := dict.Lookup(paperdata.TokenName(label))
		if !ok {
			t.Fatalf("token %s (%s) not in dictionary", label, paperdata.TokenName(label))
		}
		if got := ix.ListLen(id); got != n {
			t.Errorf("|I[%s]| = %d, want %d", label, got, n)
		}
	}
}

// Paper §3: t8 (= "MA") appears in s21, s31, and s41.
func TestPaperT8Postings(t *testing.T) {
	ix, _, dict := buildPaperIndex(t)
	id, _ := dict.Lookup(paperdata.TokenName("t8"))
	l := ix.List(id)
	if len(l) != 3 {
		t.Fatalf("postings = %v", l)
	}
	want := []Posting{{Set: 1, Elem: 0}, {Set: 2, Elem: 0}, {Set: 3, Elem: 0}}
	for i, p := range l {
		if p != want[i] {
			t.Errorf("posting %d = %+v, want %+v", i, p, want[i])
		}
	}
}

func TestPostingsSortedBySetElem(t *testing.T) {
	ix, _, _ := buildPaperIndex(t)
	for tid := 0; tid < ix.NumTokens(); tid++ {
		l := ix.List(tokens.ID(tid))
		for i := 1; i < len(l); i++ {
			if l[i-1].Set > l[i].Set ||
				(l[i-1].Set == l[i].Set && l[i-1].Elem >= l[i].Elem) {
				t.Fatalf("list for token %d not sorted: %v", tid, l)
			}
		}
	}
}

func TestSetRange(t *testing.T) {
	ix, _, dict := buildPaperIndex(t)
	id, _ := dict.Lookup(paperdata.TokenName("t1")) // "77", in many sets
	for set := int32(0); set < 4; set++ {
		r := ix.SetRange(id, set)
		for _, p := range r {
			if p.Set != set {
				t.Fatalf("SetRange(%d) returned posting of set %d", set, p.Set)
			}
		}
	}
	// Sum of per-set ranges must equal the full list.
	total := 0
	for set := int32(0); set < 4; set++ {
		total += len(ix.SetRange(id, set))
	}
	if total != ix.ListLen(id) {
		t.Errorf("per-set ranges sum to %d, list length %d", total, ix.ListLen(id))
	}
	// A set id beyond the collection yields an empty range.
	if len(ix.SetRange(id, 99)) != 0 {
		t.Error("out-of-range set should return empty range")
	}
}

func TestUnknownTokens(t *testing.T) {
	ix, _, dict := buildPaperIndex(t)
	// A token interned after Build has no list, and neither has an id
	// past the dictionary's size, which a query gives a token the
	// collection never held.
	newID := dict.Intern("totally-new-token")
	if ix.List(newID) != nil {
		t.Error("post-build token should have a nil list")
	}
	if novel := tokens.ID(dict.Size() + 3); ix.List(novel) != nil || ix.ListLen(novel) != 0 || len(ix.SetRange(novel, 0)) != 0 {
		t.Error("an id past the dictionary's size should have an empty list")
	}
	if ix.ListLen(newID) != 0 {
		t.Error("post-build token should have length 0")
	}
	if len(ix.SetRange(newID, 0)) != 0 {
		t.Error("post-build token should have empty set range")
	}
}

func TestTotalPostings(t *testing.T) {
	ix, coll, _ := buildPaperIndex(t)
	want := 0
	for i := range coll.Sets {
		for j := range coll.Sets[i].Elements {
			want += len(coll.Sets[i].Elements[j].Tokens)
		}
	}
	if got := ix.TotalPostings(); got != want {
		t.Errorf("TotalPostings = %d, want %d", got, want)
	}
	if ix.Collection() != coll {
		t.Error("Collection() should return the indexed collection")
	}
}

func TestBuildEmptyCollection(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, nil)
	ix := Build(coll)
	if ix.TotalPostings() != 0 || ix.NumTokens() != 0 {
		t.Error("empty collection should produce an empty index")
	}
}

func TestBuildQGramIndex(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildQGram(dict, []dataset.RawSet{
		{Name: "A", Elements: []string{"Database", "Databases"}},
	}, 3)
	ix := Build(coll)
	// The gram "Dat" occurs in both elements.
	id, ok := dict.Lookup("Dat")
	if !ok {
		t.Fatal("gram Dat not interned")
	}
	if ix.ListLen(id) != 2 {
		t.Errorf("|I[Dat]| = %d, want 2", ix.ListLen(id))
	}
}

func TestAppendSets(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, []dataset.RawSet{
		{Name: "A", Elements: []string{"x y", "z"}},
	})
	ix := Build(coll)
	from := dataset.Append(coll, []dataset.RawSet{
		{Name: "B", Elements: []string{"x w"}},
	})
	ix.AppendSets(from)

	// Existing token x now lists both sets, in sorted order.
	idX, _ := dict.Lookup("x")
	l := ix.List(idX)
	if len(l) != 2 || l[0].Set != 0 || l[1].Set != 1 {
		t.Fatalf("x postings = %+v", l)
	}
	// The brand-new token w resolves.
	idW, ok := dict.Lookup("w")
	if !ok || ix.ListLen(idW) != 1 {
		t.Errorf("w postings = %d", ix.ListLen(idW))
	}
}

// TestCheckDirectoryCatchesDrift is the self-check's own check: the
// directory a built index reads — its collection's element table — agrees
// with the collection's content, every way the two can drift apart is
// reported, and the collection's own maintenance (Append, DropSets) keeps
// them together.
func TestCheckDirectoryCatchesDrift(t *testing.T) {
	ix, coll, _ := buildPaperIndex(t)
	requireDrift := func(what string, drifted bool) {
		t.Helper()
		if err := ix.CheckDirectory(); (err != nil) != drifted {
			t.Fatalf("%s: CheckDirectory = %v, want an error: %v", what, err, drifted)
		}
	}
	requireDrift("as built", false)
	el := &coll.Sets[1].Elements[0]
	if key, ok := coll.Dict.Keys().LookupBytes([]byte(dataset.ElementKey(el, dataset.ModeWord))); !ok {
		t.Fatal("set 1 element 0 has no key")
	} else if got := ix.Directory().At(Posting{Set: 1, Elem: 0}); got.Key != key || int(got.Size) != len(el.Tokens) {
		t.Fatalf("entry of set 1 element 0 = %+v, element has key %d and %d tokens", got, key, len(el.Tokens))
	}
	// Under ModeQGram the size is the rune length, not the q-gram count.
	grams := dataset.BuildQGram(tokens.NewDictionary(), []dataset.RawSet{{Name: "g", Elements: []string{"héllo héllo"}}}, 3)
	gix := Build(grams)
	if got := gix.Directory().At(Posting{}); got.Size != 11 || int(got.Size) == len(grams.Sets[0].Elements[0].Tokens) {
		t.Fatalf("q-gram entry = %+v for an 11-rune element of %d q-grams", got, len(grams.Sets[0].Elements[0].Tokens))
	}
	if err := gix.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	if got := len(ix.Directory().Set(2)); got != len(coll.Sets[2].Elements) {
		t.Fatalf("directory lists %d elements for set 2, which has %d", got, len(coll.Sets[2].Elements))
	}

	ent := &coll.Dir.Set(1)[0]
	key := ent.Key
	ent.Key = dataset.NoKey
	requireDrift("a key changed in the table", true)
	ent.Key = key
	ent.Size--
	requireDrift("a length changed in the table", true)
	ent.Size++
	requireDrift("restored", false)
	toks := el.Tokens
	el.Tokens = toks[1:]
	requireDrift("the content changed under the table", true)
	el.Tokens = toks
	requireDrift("restored", false)

	from := dataset.Append(coll, []dataset.RawSet{{Name: "new", Elements: []string{"77 Mass Ave", "Boston"}}})
	requireDrift("sets appended to the collection", false)
	ix.AppendSets(from)
	requireDrift("after AppendSets", false)

	coll.Sets[0].Elements = nil // what DropSets does to a dead set, table aside
	requireDrift("a set's elements dropped under the table", true)
	coll.DropSets([]bool{true})
	requireDrift("after DropSets", false)
	ix.Rebuild()
	requireDrift("after Rebuild", false)
}

// TestBuildParallelEqualsBuild: filling the lists from contiguous set-id
// ranges concurrently gives Build's lists posting for posting, in either
// form, whatever the range count — including more ranges than sets.
func TestBuildParallelEqualsBuild(t *testing.T) {
	coll, _ := synthCorpus(90, 7)
	serial := Build(coll)
	for _, parts := range []int{1, 2, 7, 200} {
		px := BuildParallel(coll, parts)
		stage := fmt.Sprintf("parts=%d", parts)
		for tid, want := range serial.lists {
			if got := px.lists[tid]; cap(got) != len(want) || !slices.Equal(got, want) {
				t.Fatalf("%s: token %d: list %v (cap %d), want %v", stage, tid, got, cap(got), want)
			}
		}
		requireSameIndex(t, stage, serial, px)
		px.Compress(0)
		requireSameIndex(t, stage+" compressed", serial, px)
	}
}
