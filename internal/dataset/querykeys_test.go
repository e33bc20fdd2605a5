package dataset

import (
	"testing"

	"silkmoth/internal/tokens"
)

// TestQueryKeysDoNotGrowTable pins the leak-free property of query
// tokenization: QueryScratch resolves element keys by lookup, so serving
// any number of distinct queries leaves the key table exactly as the
// indexed collection built it, while still matching identical elements to
// their indexed key ids.
func TestQueryKeysDoNotGrowTable(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := BuildWord(dict, []RawSet{
		{Name: "a", Elements: []string{"red bicycle", "blue kettle"}},
	})
	indexedKeys := dict.Keys().Size()
	if indexedKeys == 0 {
		t.Fatal("indexed build interned no keys")
	}

	q := new(QueryScratch).Build(dict, []RawSet{
		{Name: "q", Elements: []string{"red bicycle", "never seen before", "also novel"}},
	}, ModeWord, 0)
	if got := dict.Keys().Size(); got != indexedKeys {
		t.Fatalf("query tokenization grew key table: %d -> %d", indexedKeys, got)
	}
	els := q.Dir.Set(0)
	if held := coll.Dir.Set(0)[0].Key; els[0].Key != held {
		t.Fatalf("identical query element got key %d, indexed twin has %d", els[0].Key, held)
	}
	if els[1].Key != NoKey || els[2].Key != NoKey {
		t.Fatalf("novel query elements must get NoKey, got %d, %d", els[1].Key, els[2].Key)
	}

	// Same property under q-gram mode, where keys are whole raw strings.
	dict2 := tokens.NewDictionary()
	BuildQGram(dict2, []RawSet{{Name: "a", Elements: []string{"kitten"}}}, 2)
	n2 := dict2.Keys().Size()
	q2 := new(QueryScratch).Build(dict2, []RawSet{{Name: "q", Elements: []string{"kitten", "sitting"}}}, ModeQGram, 2)
	if got := dict2.Keys().Size(); got != n2 {
		t.Fatalf("qgram query tokenization grew key table: %d -> %d", n2, got)
	}
	if ents := q2.Dir.Set(0); ents[0].Key == NoKey || ents[1].Key != NoKey {
		t.Fatalf("qgram query keys wrong: %d, %d", ents[0].Key, ents[1].Key)
	}
}
