package tokens

import "testing"

// TestKeyInternerLifecycle covers the element-key interner riding along
// with the dictionary: dense ids, and reclamation freeing exactly the
// unmarked keys and recycling their slots like the token side.
func TestKeyInternerLifecycle(t *testing.T) {
	d := NewDictionary()
	keys := d.Keys()
	if keys == nil {
		t.Fatal("Keys() = nil")
	}
	a := keys.Intern("alpha")
	b := keys.Intern("beta")
	if a == b {
		t.Fatal("distinct keys interned to one id")
	}
	if got := keys.Intern("alpha"); got != a {
		t.Fatalf("re-intern = %d, want %d", got, a)
	}

	// a is marked: Reclaim must free only b. The token table is a
	// separate id space and keeps everything.
	d.Intern("alpha")
	keep := make([]bool, keys.Size())
	keep[a] = true
	if n := keys.Reclaim(keep); n != 1 {
		t.Fatalf("Reclaim freed %d, want 1 (only b)", n)
	}
	if _, ok := keys.Lookup("alpha"); !ok {
		t.Fatal("marked key reclaimed")
	}
	if _, ok := keys.Lookup("beta"); ok {
		t.Fatal("unmarked key survived reclaim")
	}
	if _, ok := d.Lookup("alpha"); !ok || d.FreeSlots() != 0 {
		t.Fatal("reclaiming keys touched the token table")
	}
	// The freed slot is recycled for the next new key.
	c := keys.Intern("gamma")
	if c != b {
		t.Fatalf("new key got id %d, want recycled slot %d", c, b)
	}
	// A key interned after the marks were taken lies past len(keep) and
	// is never reclaimed by them.
	keys.Intern("late")
	keys.Reclaim(keep[:1])
	if _, ok := keys.Lookup("late"); !ok {
		t.Fatal("a key past the marks was reclaimed")
	}
}
