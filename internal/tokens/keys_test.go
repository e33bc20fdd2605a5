package tokens

import "testing"

// TestKeyInternerLifecycle covers the element-key interner riding along
// with the dictionary: dense ids, retain/release symmetry, and
// reclamation recycling slots exactly like the token side.
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

	keys.Retain([]ID{a, a, b})
	keys.Release([]ID{a})
	if keys.Refs(a) != 1 {
		t.Fatalf("refs(a) = %d, want 1", keys.Refs(a))
	}
	// a is still retained: Reclaim must not free it.
	keys.Release([]ID{b})
	if n := keys.Reclaim(); n != 1 {
		t.Fatalf("Reclaim freed %d, want 1 (only b)", n)
	}
	if _, ok := keys.Lookup("alpha"); !ok {
		t.Fatal("retained key reclaimed")
	}
	if _, ok := keys.Lookup("beta"); ok {
		t.Fatal("released key survived reclaim")
	}
	// The freed slot is recycled for the next new key.
	c := keys.Intern("gamma")
	if c != b {
		t.Fatalf("new key got id %d, want recycled slot %d", c, b)
	}
	// A key interned but never retained is never pending, so never
	// reclaimed.
	u := keys.Intern("unretained")
	keys.Reclaim()
	if _, ok := keys.Lookup("unretained"); !ok {
		t.Fatal("unretained key was reclaimed")
	}
	if keys.Refs(u) != 0 {
		t.Fatalf("refs(unretained) = %d, want 0", keys.Refs(u))
	}
}
