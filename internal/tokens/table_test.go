package tokens

import (
	"math/rand"
	"testing"
)

// mapDictionary is the map-and-strings dictionary the intern table
// replaced, kept as the oracle the table must match id for id: first
// Intern order, reclaimed slots reused lowest id first.
type mapDictionary struct {
	ids   map[string]ID
	strs  []string
	free  []ID
	freed []bool
}

func newMapDictionary() *mapDictionary { return &mapDictionary{ids: make(map[string]ID)} }

func (d *mapDictionary) Intern(s string) ID {
	if id, ok := d.ids[s]; ok {
		return id
	}
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		d.freed[id] = false
		d.ids[s], d.strs[id] = id, s
		return id
	}
	id := ID(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	d.freed = append(d.freed, false)
	return id
}

func (d *mapDictionary) size() int { return len(d.strs) }

func (d *mapDictionary) Lookup(s string) (ID, bool) {
	id, ok := d.ids[s]
	return id, ok
}

func (d *mapDictionary) Reclaim(keep []bool) int {
	n := 0
	for id, k := range keep {
		if k || d.freed[id] {
			continue
		}
		delete(d.ids, d.strs[id])
		d.strs[id], d.freed[id] = "", true
		n++
	}
	d.free = d.free[:0]
	for id := len(d.freed) - 1; id >= 0; id-- {
		if d.freed[id] {
			d.free = append(d.free, ID(id))
		}
	}
	return n
}

// mapQuery is Query over the oracle: a dictionary hit keeps its id, the
// k-th distinct novel token gets Size()+k.
type mapQuery struct {
	d     *mapDictionary
	novel map[string]ID
}

func (q *mapQuery) Reset(d *mapDictionary) { q.d, q.novel = d, make(map[string]ID) }

func (q *mapQuery) Intern(s string) ID {
	if id, ok := q.d.ids[s]; ok {
		return id
	}
	id, ok := q.novel[s]
	if !ok {
		id = ID(len(q.d.strs) + len(q.novel))
		q.novel[s] = id
	}
	return id
}

// opReader turns fuzz bytes into operations; it reads zeros once the
// bytes run out.
type opReader struct{ b []byte }

func (r *opReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// word reads a string of 0 to 4 letters over a four-letter alphabet, so
// that repeats are common and the table still has a few hundred to grow
// into.
func (r *opReader) word() string {
	w := make([]byte, r.next()%5)
	for i := range w {
		w[i] = 'a' + r.next()%4
	}
	return string(w)
}

// runInternOps drives a Dictionary and the map oracle through the same
// operations and requires equal ids, Size, FreeSlots and String after
// every one of them.
func runInternOps(t *testing.T, ops []byte) {
	t.Helper()
	d, m := NewDictionary(), newMapDictionary()
	var q Query
	var mq mapQuery
	r := &opReader{b: ops}
	for step := 0; len(r.b) > 0; step++ {
		op := r.next() % 7
		switch op {
		case 0:
			w := r.word()
			if got, want := d.Intern(w), m.Intern(w); got != want {
				t.Fatalf("step %d: Intern(%q) = %d, map %d", step, w, got, want)
			}
		case 1:
			w := r.word()
			if got, want := d.InternBytes([]byte(w)), m.Intern(w); got != want {
				t.Fatalf("step %d: InternBytes(%q) = %d, map %d", step, w, got, want)
			}
		case 2:
			w := r.word()
			id, ok := d.Lookup(w)
			bid, bok := d.LookupBytes([]byte(w))
			wid, wok := m.Lookup(w)
			if ok != wok || bok != wok || (ok && (id != wid || bid != wid)) {
				t.Fatalf("step %d: Lookup(%q) = %d,%v, LookupBytes %d,%v, map %d,%v", step, w, id, ok, bid, bok, wid, wok)
			}
		case 3:
			keep := make([]bool, int(r.next())%(m.size()+1))
			for i := range keep {
				keep[i] = r.next()%3 != 0
			}
			if got, want := d.Reclaim(keep), m.Reclaim(keep); got != want {
				t.Fatalf("step %d: Reclaim(%v) freed %d, map %d", step, keep, got, want)
			}
		case 4:
			q.Reset(d)
			mq.Reset(m)
			for n := r.next() % 6; n > 0; n-- {
				w := r.word()
				got := q.Intern(w)
				if r.next()%2 == 0 {
					got = q.InternBytes([]byte(w))
				}
				if want := mq.Intern(w); got != want {
					t.Fatalf("step %d: Query.Intern(%q) = %d, map %d", step, w, got, want)
				}
			}
		case 5:
			var src Table
			var ws []string
			for n := r.next() % 8; n > 0; n-- {
				w := r.word()
				src.Intern(w)
				ws = append(ws, w)
			}
			got := d.InternTable(&src)
			var want []ID
			seen := make(map[string]bool)
			for _, w := range ws {
				if !seen[w] {
					seen[w] = true
					want = append(want, m.Intern(w))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: InternTable remapped %d strings, want %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: InternTable remap[%d] = %d, map %d", step, i, got[i], want[i])
				}
			}
		case 6:
			for id := range m.strs {
				if b := d.Bytes(ID(id)); string(b) != m.strs[id] {
					t.Fatalf("step %d: Bytes(%d) = %q, map %q", step, id, b, m.strs[id])
				}
			}
		}
		if d.Size() != m.size() || d.FreeSlots() != len(m.free) {
			t.Fatalf("step %d (op %d): Size %d FreeSlots %d, map %d %d", step, op, d.Size(), d.FreeSlots(), m.size(), len(m.free))
		}
		for id, s := range m.strs {
			if got := d.String(ID(id)); got != s {
				t.Fatalf("step %d (op %d): String(%d) = %q, map %q", step, op, id, got, s)
			}
		}
	}
}

// FuzzInternTableMatchesMap holds the intern table to the map-based
// dictionary it replaced over arbitrary Intern, InternBytes, Lookup,
// Reclaim, Query and InternTable sequences.
func FuzzInternTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 4, 1, 2, 3, 0, 3, 3, 3, 3, 1, 4, 1, 2, 3, 0, 3, 9, 1, 0, 0, 6})
	f.Add([]byte("the quick brown fox jumps over the lazy dog and then some"))
	seed := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runInternOps(t, ops)
	})
}

// TestInternTableMatchesMap is the fuzz target's seeded twin: long random
// sequences that grow, reclaim and regrow the table many times over.
func TestInternTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(ops)
		runInternOps(t, ops)
	}
}
