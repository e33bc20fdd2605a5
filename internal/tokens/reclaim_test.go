package tokens

import "testing"

// TestReclaimFreesUnmarked covers Reclaim(keep): it frees exactly the ids
// keep leaves unmarked (below len(keep)), never an id already free, and
// Intern reuses the freed slots lowest id first without growing the id
// space.
func TestReclaimFreesUnmarked(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	c := d.Intern("gamma")
	e := d.Intern("epsilon")
	late := d.Intern("late") // past len(keep) below: must stay

	// Reclaiming with every id marked frees nothing.
	if n := d.Reclaim([]bool{true, true, true, true, true}); n != 0 || d.FreeSlots() != 0 {
		t.Fatalf("all marked: freed %d, %d free slots", n, d.FreeSlots())
	}

	// Marks in id order: alpha, beta, gamma, epsilon.
	keep := []bool{true, false, true, false}
	if n := d.Reclaim(keep); n != 2 {
		t.Fatalf("Reclaim freed %d ids, want 2 (beta, epsilon)", n)
	}
	for _, w := range []string{"beta", "epsilon"} {
		if _, ok := d.Lookup(w); ok {
			t.Fatalf("%s should be gone from the intern table", w)
		}
	}
	for w, id := range map[string]ID{"alpha": a, "gamma": c, "late": late} {
		if got, ok := d.Lookup(w); !ok || got != id || d.String(id) != w {
			t.Fatalf("%s: Lookup = %d,%v String = %q; want %d kept", w, got, ok, d.String(id), id)
		}
	}
	if d.FreeSlots() != 2 {
		t.Fatalf("free slots = %d, want 2", d.FreeSlots())
	}

	// A second Reclaim with the same marks finds nothing new to free: an
	// id already free is not freed twice.
	if n := d.Reclaim(keep); n != 0 || d.FreeSlots() != 2 {
		t.Fatalf("second Reclaim freed %d, %d free slots; want 0, 2", n, d.FreeSlots())
	}

	// The freed slots are recycled lowest id first; the id space does not
	// grow until they are used up.
	size := d.Size()
	for _, want := range []struct {
		word string
		id   ID
	}{{"delta", b}, {"zeta", e}} {
		if got := d.Intern(want.word); got != want.id {
			t.Fatalf("%s got id %d, want recycled %d", want.word, got, want.id)
		}
		if id, ok := d.Lookup(want.word); !ok || id != want.id || d.String(want.id) != want.word {
			t.Fatalf("recycled slot %d: Lookup = %d,%v String = %q", want.id, id, ok, d.String(want.id))
		}
	}
	if d.Size() != size || d.FreeSlots() != 0 {
		t.Fatalf("after recycling: size %d (was %d), %d free slots", d.Size(), size, d.FreeSlots())
	}
	if next := d.Intern("eta"); int(next) != size {
		t.Fatalf("with no free slot, eta got id %d, want %d", next, size)
	}

	// Slots freed by separate Reclaims are still reused in id order.
	d.Reclaim([]bool{false, true, true, true}) // frees alpha's slot (a)
	d.Reclaim([]bool{true, true, true, false}) // then zeta's (e)
	if got := d.Intern("theta"); got != a {
		t.Fatalf("theta got id %d, want the lowest free slot %d", got, a)
	}
	if got := d.Intern("iota"); got != e {
		t.Fatalf("iota got id %d, want %d", got, e)
	}
}
