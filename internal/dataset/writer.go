package dataset

import (
	"slices"

	"silkmoth/internal/tokens"
)

// policy is a writer's one parameter: what its token and element-key ids
// come from.
type policy uint8

const (
	// internDict interns tokens and keys into the collection's dictionary
	// and its key table: a build's first range, Append and a snapshot
	// load (whose ids are read, not tokenized).
	internDict policy = iota
	// internLocal interns them into the writer's own tables, which the
	// build merges into the dictionary's in range order, mapping the
	// range's token ids through the merge before its keys are interned
	// (finish): a build's later ranges.
	internLocal
	// lookUp reads the dictionary and never writes it (tokens.Query, and
	// NoKey for a key the table does not hold): a query. Its sets alias
	// the writer's buffers until the next start, so a warmed writer
	// allocates nothing.
	lookUp
)

// writer lays sets out in a collection, one after another from a given
// slot — beginSet, then per element its ids and element, then endSet —
// and finish writes their element table entries. It owns the layout — each set's element backing, its one token run that
// every element's Tokens slices, its q-chunk run with the leading end
// offsets (Set.chunks), and its entries in the element table — so a build
// range, Append, the query scratch and the snapshot loader differ only in
// their policy and in where their ids come from. Under every policy but
// lookUp each set owns exactly sized memory, which Set.Drop frees.
//
// The set at a slot past the end of c.Sets is appended, as are table
// entries past the end of c.Dir; a build lays both out up front and its
// ranges write their own slots.
type writer struct {
	c      *Collection
	policy policy
	first  int // the slot of the first set since start
	set    int // the slot of the set being written

	toks, keys           tokens.Interner // where ids come from, by policy
	localToks, localKeys tokens.Table    // internLocal's tables
	query                tokens.Query    // lookUp's token interner

	// The set being written: its name, its elements, ids — every
	// element's token ids, appended by the caller, which ends marks the
	// end of per element — and run — one end offset per element, then the
	// chunk ids the caller appends. Under lookUp elems, ids and run keep
	// every set since start, and e0, t0 and r0 mark where this one begins.
	name       string
	elems      []Element
	ids, run   []tokens.ID
	ends       []int
	e0, t0, r0 int

	sc  tokens.Scratch
	key []byte // staging for word-mode element keys
}

// start points w at c under p, its first set to go to slot set, and
// forgets what it staged. The writer keeps its buffers across starts.
func (w *writer) start(c *Collection, p policy, set int) {
	w.c, w.policy, w.first, w.set = c, p, set, set
	w.elems, w.ids, w.run = w.elems[:0], w.ids[:0], w.run[:0]
	switch p {
	case internDict:
		w.toks, w.keys = c.Dict, c.Dict.Keys()
	case internLocal:
		w.toks, w.keys = &w.localToks, &w.localKeys
	case lookUp:
		w.query.Reset(c.Dict)
		w.toks, w.keys = &w.query, keyLookup{c.Dict.Keys()}
	}
}

// writeRaw tokenizes rs through the policy's token interner and writes
// it: element after element, q-grams before q-chunks, the order a serial
// build interns them in.
func (w *writer) writeRaw(rs RawSet) {
	w.beginSet(rs.Name, len(rs.Elements))
	for _, raw := range rs.Elements {
		start := len(w.ids)
		if w.c.Mode == ModeWord {
			w.ids = w.sc.AppendWordIDs(w.ids, w.toks, raw)
		} else {
			w.ids = w.sc.AppendQGramIDs(w.ids, w.toks, raw, w.c.Q)
			w.run = w.sc.AppendQChunkIDs(w.run, w.toks, raw, w.c.Q)
		}
		w.ids = w.ids[:start+len(tokens.SortUnique(w.ids[start:]))]
		w.element(raw)
	}
	w.endSet()
}

// beginSet starts the set at the writer's slot; n elements follow.
func (w *writer) beginSet(name string, n int) {
	if w.policy == lookUp {
		w.e0 = len(w.elems)
		w.elems = slices.Grow(w.elems, n)[:w.e0+n]
		clear(w.elems[w.e0:])
	} else {
		w.e0, w.elems = 0, make([]Element, n)
	}
	w.name, w.t0, w.r0 = name, len(w.ids), len(w.run)
	w.ends = w.ends[:0]
	if w.c.Mode == ModeQGram {
		w.run = append(w.run, make([]tokens.ID, n)...) // the end offsets
	}
}

// element adds the set's next element, of text raw. Its token ids are
// what the caller appended to w.ids since the last element, ascending
// strictly, and its chunk ids what it appended to w.run.
//
//silkmoth:hotpath
func (w *writer) element(raw string) {
	j := len(w.ends)
	w.elems[w.e0+j].Raw = raw
	if w.c.Mode == ModeQGram {
		w.run[w.r0+j] = tokens.ID(len(w.run) - w.r0)
	}
	w.ends = append(w.ends, len(w.ids)-w.t0)
}

// endSet lays the set out and puts it in its slot; the next set goes to
// the next slot.
func (w *writer) endSet() {
	elems, ids := w.elems[w.e0:len(w.elems):len(w.elems)], w.ids[w.t0:]
	if len(w.run)-w.r0 == len(elems) { // no chunks: no run
		w.run = w.run[:w.r0]
	}
	run := w.run[w.r0:len(w.run):len(w.run)]
	if w.policy != lookUp {
		ids, run = cloneIDs(ids), cloneIDs(run)
		w.ids, w.run = w.ids[:0], w.run[:0]
	}
	lo := 0
	for j, hi := range w.ends {
		if hi > lo {
			elems[j].Tokens = ids[lo:hi:hi]
			lo = hi
		}
	}
	s := Set{Name: w.name, Elements: elems}
	if len(run) > 0 {
		s.chunks = run
	}
	if c := w.c; w.set == len(c.Sets) {
		c.Sets = append(c.Sets, s)
	} else {
		c.Sets[w.set] = s
	}
	w.set++
}

// finish writes the table entries of every set written since start.
// Under internLocal it first maps each set's token and chunk ids to the
// dictionary's through remap: the map is one to one, so each element's
// ids stay distinct and only need sorting again. A build's ranges finish
// after they all wrote their sets, once the dictionary holds every
// range's tokens.
func (w *writer) finish(remap []tokens.ID) {
	for i := w.first; i < w.set; i++ {
		s := &w.c.Sets[i]
		if w.policy == internLocal {
			chunks := s.ChunkIDs()
			for k, id := range chunks {
				chunks[k] = remap[id]
			}
			for j := range s.Elements {
				ids := s.Elements[j].Tokens
				for k, id := range ids {
					ids[k] = remap[id]
				}
				slices.Sort(ids)
			}
		}
		w.entries(i)
	}
}

// entries writes the table entries of set i, extending the table by set i
// when it ends before it (a zero table is the table of no sets).
func (w *writer) entries(i int) {
	d, s := &w.c.Dir, &w.c.Sets[i]
	if len(d.base) == 0 {
		d.base = append(d.base, 0)
	}
	if len(d.base) == i+1 {
		d.base = append(d.base, d.base[i]+int32(len(s.Elements)))
		d.ents = append(d.ents, make([]DirEntry, len(s.Elements))...)
	}
	ents := d.Set(int32(i))
	for j := range s.Elements {
		ents[j], w.key = entry(w.keys, &s.Elements[j], w.c.Mode, w.key)
	}
}

// entry returns e's element table entry under mode: its Length, and its
// content key as keys gives it — NoKey for an empty element. Word-mode key
// bytes are staged in buf (returned for reuse), which a table copies only
// when it keeps the key.
//
//silkmoth:hotpath
func entry(keys tokens.Interner, e *Element, mode TokenMode, buf []byte) (DirEntry, []byte) {
	ent := DirEntry{Key: NoKey, Size: int32(e.Length(mode))}
	switch {
	case mode == ModeQGram && e.Raw != "":
		ent.Key = keys.Intern(e.Raw)
	case mode == ModeWord && len(e.Tokens) > 0:
		buf = appendWordKey(buf[:0], e.Tokens)
		ent.Key = keys.InternBytes(buf)
	}
	return ent, buf
}

// keyLookup is the key interner of a lookUp writer and of LookupEntries:
// it reads a key table and never writes it. A key the table does not hold
// gets NoKey: it proves the element identical to nothing indexed, which is
// exactly what NoKey means to the reduction.
type keyLookup struct{ keys *tokens.Dictionary }

func (k keyLookup) Intern(s string) tokens.ID {
	if id, ok := k.keys.Lookup(s); ok {
		return id
	}
	return NoKey
}

func (k keyLookup) InternBytes(b []byte) tokens.ID {
	if id, ok := k.keys.LookupBytes(b); ok {
		return id
	}
	return NoKey
}

// cloneIDs copies ids into an exactly sized slice (nil when empty).
func cloneIDs(ids []tokens.ID) []tokens.ID {
	if len(ids) == 0 {
		return nil
	}
	return append(make([]tokens.ID, 0, len(ids)), ids...)
}
