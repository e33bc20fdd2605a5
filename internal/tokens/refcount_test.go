package tokens

import "testing"

func TestRetainReleaseReclaim(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	bID := d.Intern("beta")
	c := d.Intern("gamma")

	d.Retain([]ID{a, a, bID, c})
	if d.Refs(a) != 2 || d.Refs(bID) != 1 || d.Refs(c) != 1 {
		t.Fatalf("refs = %d/%d/%d", d.Refs(a), d.Refs(bID), d.Refs(c))
	}

	// Releasing to zero only marks the id pending; the slot stays intact
	// until Reclaim.
	d.Release([]ID{bID})
	if d.Refs(bID) != 0 {
		t.Fatalf("beta refs = %d, want 0", d.Refs(bID))
	}
	if d.FreeSlots() != 0 {
		t.Fatal("release must not free slots")
	}
	if s := d.String(bID); s != "beta" {
		t.Fatalf("beta string = %q before reclaim", s)
	}

	// A re-retained id survives Reclaim (resurrection).
	d.Release([]ID{c})
	d.Retain([]ID{c})
	if n := d.Reclaim(); n != 1 {
		t.Fatalf("Reclaim freed %d ids, want 1 (beta only)", n)
	}
	if _, ok := d.Lookup("beta"); ok {
		t.Fatal("beta should be gone from the intern map")
	}
	if _, ok := d.Lookup("gamma"); !ok {
		t.Fatal("gamma was resurrected and must survive")
	}
	if d.FreeSlots() != 1 {
		t.Fatalf("free slots = %d, want 1", d.FreeSlots())
	}

	// The freed slot is recycled for the next new token; the id space
	// does not grow.
	size := d.Size()
	reused := d.Intern("delta")
	if reused != bID {
		t.Fatalf("delta got id %d, want recycled %d", reused, bID)
	}
	if d.Size() != size {
		t.Fatalf("size grew from %d to %d", size, d.Size())
	}
	if d.FreeSlots() != 0 {
		t.Fatal("recycling should consume the free slot")
	}
	if id, ok := d.Lookup("delta"); !ok || id != reused || d.String(reused) != "delta" || d.Refs(reused) != 0 {
		t.Fatalf("recycled slot: Lookup = %d,%v String = %q Refs = %d; want %d, delta, 0 refs",
			id, ok, d.String(reused), d.Refs(reused), reused)
	}

	// Double-release is clamped, and a double-pending id is freed once.
	d.Release([]ID{a, a, a})
	if d.Refs(a) != 0 {
		t.Fatalf("alpha refs = %d, want 0", d.Refs(a))
	}
	if n := d.Reclaim(); n != 1 {
		t.Fatalf("Reclaim freed %d, want 1", n)
	}
}
