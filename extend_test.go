package silkmoth

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
)

func TestSearchTopK(t *testing.T) {
	sets := []Set{
		{Name: "exact", Elements: []string{"a b c", "d e f"}},
		{Name: "close", Elements: []string{"a b c", "d e g"}},
		{Name: "closer", Elements: []string{"a b c", "d e f g"}},
		{Name: "far", Elements: []string{"x", "y"}},
	}
	eng, err := NewEngine(sets, Config{Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ref := Set{Elements: []string{"a b c", "d e f"}}
	top2, err := eng.SearchTopKContext(context.Background(), ref, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top2) != 2 || top2[0].Name != "exact" {
		t.Fatalf("top2 = %+v", top2)
	}
	if top2[1].Relatedness > top2[0].Relatedness {
		t.Error("topK not sorted by relatedness")
	}
	all, _ := eng.SearchContext(context.Background(), ref)
	topAll, _ := eng.SearchTopKContext(context.Background(), ref, 100)
	if len(topAll) != len(all) {
		t.Errorf("k beyond result count should return everything: %d vs %d", len(topAll), len(all))
	}
	none, _ := eng.SearchTopKContext(context.Background(), ref, 0)
	if len(none) != 0 {
		t.Error("k=0 should return nothing")
	}
}

// TestSearchTopKMaxInt pins that the caller's k never sizes an allocation:
// on a sharded engine the merge once made a k-capacity slice, so k =
// math.MaxInt panicked with "makeslice: cap out of range".
func TestSearchTopKMaxInt(t *testing.T) {
	sets := []Set{
		{Name: "exact", Elements: []string{"a b c", "d e f"}},
		{Name: "close", Elements: []string{"a b c", "d e g"}},
		{Name: "closer", Elements: []string{"a b c", "d e f g"}},
		{Name: "far", Elements: []string{"x", "y"}},
	}
	ref := Set{Elements: []string{"a b c", "d e f"}}
	for _, shards := range []int{2, 7} {
		eng, err := NewEngine(sets, Config{Delta: 0.5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		all, err := eng.SearchContext(context.Background(), ref)
		if err != nil {
			t.Fatal(err)
		}
		top, err := eng.SearchTopKContext(context.Background(), ref, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(top, all) {
			t.Fatalf("shards %d: SearchTopK(MaxInt) = %+v, Search = %+v", shards, top, all)
		}
	}
}

func TestAddIncremental(t *testing.T) {
	eng, err := NewEngine([]Set{
		{Name: "first", Elements: []string{"p q", "r s"}},
	}, Config{Delta: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	ref := Set{Elements: []string{"p q", "r s"}}
	ms, _ := eng.SearchContext(context.Background(), ref)
	if len(ms) != 1 {
		t.Fatalf("pre-add matches = %+v", ms)
	}
	// Add a twin plus an unrelated set; both must be immediately findable.
	eng.Add([]Set{
		{Name: "twin", Elements: []string{"r s", "p q"}},
		{Name: "other", Elements: []string{"brand new tokens"}},
	})
	if eng.Len() != 3 {
		t.Fatalf("Len = %d after Add", eng.Len())
	}
	ms, _ = eng.SearchContext(context.Background(), ref)
	if len(ms) != 2 {
		t.Fatalf("post-add matches = %+v", ms)
	}
	// New tokens must also resolve: a query for the new set alone.
	ms, _ = eng.SearchContext(context.Background(), Set{Elements: []string{"brand new tokens"}})
	if len(ms) != 1 || ms[0].Name != "other" {
		t.Fatalf("new-token search = %+v", ms)
	}
	// Discovery over the grown collection matches a from-scratch engine.
	grown := mustDiscover(t, eng)
	fresh, err := NewEngine([]Set{
		{Name: "first", Elements: []string{"p q", "r s"}},
		{Name: "twin", Elements: []string{"r s", "p q"}},
		{Name: "other", Elements: []string{"brand new tokens"}},
	}, Config{Delta: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	want := mustDiscover(t, fresh)
	if len(grown) != len(want) {
		t.Fatalf("incremental discovery diverges: %+v vs %+v", grown, want)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sets := []Set{
		{Name: "A", Elements: []string{"77 Mass Ave", "5th St"}},
		{Name: "B", Elements: []string{"77 Massachusetts Ave", "Fifth St"}},
	}
	cfg := Config{Delta: 0.5, Metric: SetContainment}
	eng, err := NewEngine(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveCollection(&buf); err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngineFromSaved(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1 := mustDiscover(t, eng)
	p2 := mustDiscover(t, eng2)
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("reloaded engine diverges: %+v vs %+v", p2, p1)
	}
	// Queries against the reloaded engine still tokenize correctly.
	m1, _ := eng.SearchContext(context.Background(), sets[0])
	m2, _ := eng2.SearchContext(context.Background(), sets[0])
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("reloaded search diverges: %+v vs %+v", m2, m1)
	}
}

func TestSaveLoadEditSimilarity(t *testing.T) {
	sets := []Set{
		{Name: "t1", Elements: []string{"Database", "Systems"}},
		{Name: "t2", Elements: []string{"Databose", "Systens"}},
	}
	cfg := Config{Delta: 0.7, Alpha: 0.7, Similarity: Eds}
	eng, err := NewEngine(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveCollection(&buf); err != nil {
		t.Fatal(err)
	}
	// Q = 0 in the reload config adopts the persisted q.
	eng2, err := NewEngineFromSaved(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mustDiscover(t, eng), mustDiscover(t, eng2)) {
		t.Error("edit-similarity reload diverges")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := NewEngineFromSaved(bytes.NewReader([]byte("not a gob")), Config{Delta: 0.5}); err == nil {
		t.Error("garbage input should fail to load")
	}
}

func TestLoadWrongSimilarity(t *testing.T) {
	eng, err := NewEngine([]Set{{Name: "A", Elements: []string{"x y"}}}, Config{Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveCollection(&buf); err != nil {
		t.Fatal(err)
	}
	// A word-tokenized collection cannot serve an edit-similarity engine.
	if _, err := NewEngineFromSaved(&buf, Config{Delta: 0.5, Similarity: Eds}); err == nil {
		t.Error("tokenization mismatch should fail")
	}
}

func TestCompare(t *testing.T) {
	location := Set{Name: "L", Elements: []string{
		"77 Mass Ave Boston MA", "5th St 02115 Seattle WA", "77 5th St Chicago IL"}}
	s4 := Set{Name: "S4", Elements: []string{
		"77 Mass Ave MA", "5th St 02115 Seattle WA", "77 5th St Boston Seattle"}}
	// The paper's Example 2: containment(R, S4) = 2.2286/3 ≈ 0.743.
	got, err := Compare(location, s4, Config{Metric: SetContainment})
	if err != nil {
		t.Fatal(err)
	}
	want := (0.8 + 1.0 + 3.0/7.0) / 3
	if got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Compare containment = %v, want %v", got, want)
	}
	// Similarity of a set with itself is 1.
	sim, err := Compare(location, location, Config{})
	if err != nil || sim != 1 {
		t.Errorf("self similarity = %v, %v", sim, err)
	}
	// Containment with an oversized reference is 0 by Definition 2.
	big := Set{Elements: []string{"a", "b", "c", "d"}}
	small := Set{Elements: []string{"a"}}
	if c, _ := Compare(big, small, Config{Metric: SetContainment}); c != 0 {
		t.Errorf("oversized containment = %v, want 0", c)
	}
	// Edit similarity path.
	e, err := Compare(Set{Elements: []string{"Database"}}, Set{Elements: []string{"Databose"}},
		Config{Similarity: Eds, Alpha: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0.5 || e >= 1 {
		t.Errorf("edit Compare = %v", e)
	}
	// Invalid config propagates.
	if _, err := Compare(location, s4, Config{Metric: Metric(9)}); err == nil {
		t.Error("invalid config should error")
	}
}
