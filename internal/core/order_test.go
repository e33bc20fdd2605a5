package core

import "testing"

func TestLocalTopK(t *testing.T) {
	m := func(set int, rel float64) Match {
		return Match{Set: set, Relatedness: rel, Score: rel}
	}
	ms := []Match{m(5, 0.3), m(1, 0.9), m(7, 0.9), m(2, 0.1), m(3, 0.9), m(0, 0.5)}
	got := localTopK(append([]Match(nil), ms...), 3)
	want := []Match{m(1, 0.9), m(3, 0.9), m(7, 0.9)} // 0.9 ties break by index
	if len(got) != len(want) {
		t.Fatalf("got %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if n := len(localTopK(append([]Match(nil), ms...), 100)); n != len(ms) {
		t.Fatalf("k beyond supply: %d items, want %d", n, len(ms))
	}
	if n := len(localTopK(nil, 3)); n != 0 {
		t.Fatalf("empty input: %d items, want 0", n)
	}
}
