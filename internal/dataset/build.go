package dataset

import (
	"sync"
	"unicode/utf8"

	"silkmoth/internal/tokens"
)

// Range returns the k-th of parts contiguous ranges that cut the set ids
// [0, n): [k·n/parts, (k+1)·n/parts). A parallel build tokenizes from these
// ranges and the index fills its posting lists from them.
func Range(k, parts, n int) (lo, hi int) { return k * n / parts, (k + 1) * n / parts }

// InRanges runs fn(k, lo, hi) for each of the parts ranges Range cuts [0, n)
// into, on one goroutine per range when there is more than one.
func InRanges(n, parts int, fn func(k, lo, hi int)) {
	if parts == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < parts; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := Range(k, parts, n)
			fn(k, lo, hi)
		}()
	}
	wg.Wait()
}

// build tokenizes raws into a collection over dict from parts set-id
// ranges. The build runs in five steps and produces the one-range build id
// for id:
//
//  1. every range tokenizes its sets in parallel, range 0 into dict and
//     the others into their own Tables, laying out each set's token run;
//  2. the ranges' token strings are interned into dict in range order,
//     which is the order a serial build first meets them in;
//  3. every range maps its runs to dict's ids and sorts each element's
//     (range 0's are sorted as they are laid out), then interns element
//     keys the same way as tokens: range 0 into dict's key table, the
//     others into their own;
//  4. the ranges' keys are interned into dict's key table in range order;
//  5. every range but the first maps its element keys to dict's.
//
// Element keys and lengths go to the collection's element table, laid out
// up front from the raw sets' sizes, so each range writes its own entries.
//
// Range 0 writes dict while the others run, which the dictionary allows:
// it is the one writer, and nothing else reads dict until build returns.
func build(dict *tokens.Dictionary, raws []RawSet, mode TokenMode, q, parts int) *Collection {
	if mode == ModeQGram && q <= 0 {
		panic("dataset: BuildQGram requires q > 0")
	}
	if mode == ModeWord {
		q = 0
	}
	c := &Collection{Sets: make([]Set, len(raws)), Dict: dict, Mode: mode, Q: q}
	c.Dir = layoutDirectory(len(raws), func(i int) int { return len(raws[i].Elements) })
	parts = max(1, min(parts, len(raws)))
	rs := make([]rangeBuild, parts)
	for k := range rs {
		r := &rs[k]
		r.c, r.raws = c, raws
		r.toks, r.keys = dict, dict.Keys()
		if k > 0 {
			r.toks, r.keys = &r.localToks, &r.localKeys
			lo, hi := Range(k, parts, len(raws))
			r.lo, r.runs = lo, make([][]tokens.ID, hi-lo)
		}
	}
	InRanges(len(raws), parts, func(k, lo, hi int) {
		for i := lo; i < hi; i++ {
			rs[k].tokenize(i)
		}
	})
	remaps := make([][]tokens.ID, parts)
	for k := 1; k < parts; k++ {
		remaps[k] = dict.InternTable(&rs[k].localToks)
	}
	InRanges(len(raws), parts, func(k, lo, hi int) {
		for i := lo; i < hi; i++ {
			rs[k].finish(i, remaps[k])
		}
	})
	for k := 1; k < parts; k++ {
		remaps[k] = dict.Keys().InternTable(&rs[k].localKeys)
	}
	InRanges(len(raws), parts, func(k, lo, hi int) {
		if k == 0 {
			return
		}
		for i := lo; i < hi; i++ {
			ents := c.Dir.Set(int32(i))
			for j := range ents {
				if ents[j].Key != NoKey {
					ents[j].Key = remaps[k][ents[j].Key]
				}
			}
		}
	})
	return c
}

// rangeBuild is one range's share of a build.
type rangeBuild struct {
	c    *Collection
	raws []RawSet
	// toks and keys are what the range interns into: the dictionary and
	// its key table for range 0, localToks and localKeys for the others.
	toks, keys           tokens.Interner
	localToks, localKeys tokens.Table
	// runs holds, for the ranges after the first, set lo+i's token run
	// from tokenize to finish, while its ids are localToks'.
	lo   int
	runs [][]tokens.ID

	sc   tokens.Scratch
	ids  []tokens.ID // one set's token ids, element after element
	ends []int       // where each of its elements ends in ids
	key  []byte      // staging for word-mode element keys
}

// tokenize lays set i out: its elements' raws, its token run, which every
// element's Tokens slices, and under ModeQGram its chunk run, sized up
// front from its elements' rune lengths (⌈runes/q⌉ chunks each). An
// element's q-grams are interned before its q-chunks, as a serial build
// does. Range 0's ids are the dictionary's, so each element's are sorted
// and deduplicated here; the other ranges' wait for finish as they were
// met.
func (r *rangeBuild) tokenize(i int) {
	rs, mode, q := r.raws[i], r.c.Mode, r.c.Q
	n := len(rs.Elements)
	s := Set{Name: rs.Name, Elements: make([]Element, n)}
	if mode == ModeQGram {
		size := n
		for _, e := range rs.Elements {
			size += tokens.NumQChunks(utf8.RuneCountInString(e), q)
		}
		if size > n {
			s.chunks = make([]tokens.ID, n, size)
		}
	}
	r.ids, r.ends = r.ids[:0], r.ends[:0]
	for j, e := range rs.Elements {
		s.Elements[j].Raw = e
		start := len(r.ids)
		if mode == ModeWord {
			r.ids = r.sc.AppendWordIDs(r.ids, r.toks, e)
		} else {
			r.ids = r.sc.AppendQGramIDs(r.ids, r.toks, e, q)
			if s.chunks != nil {
				s.chunks = r.sc.AppendQChunkIDs(s.chunks, r.toks, e, q)
				s.chunks[j] = tokens.ID(len(s.chunks))
			}
		}
		if r.runs == nil {
			r.ids = r.ids[:start+len(tokens.SortUnique(r.ids[start:]))]
		}
		r.ends = append(r.ends, len(r.ids))
	}
	run := cloneIDs(r.ids)
	lo := 0
	for j, hi := range r.ends {
		if hi > lo {
			s.Elements[j].Tokens = run[lo:hi:hi]
			lo = hi
		}
	}
	if r.runs != nil {
		r.runs[i-r.lo] = run
	}
	r.c.Sets[i] = s
}

// finish maps set i's ids through remap, the range's token ids to the
// dictionary's (nil for range 0), then writes every element's entry in the
// element table: its Length and its key in the range's key table.
func (r *rangeBuild) finish(i int, remap []tokens.ID) {
	s, mode := &r.c.Sets[i], r.c.Mode
	if remap != nil {
		remapSet(s, r.runs[i-r.lo], remap)
		r.runs[i-r.lo] = nil
	}
	ents := r.c.Dir.Set(int32(i))
	for j := range s.Elements {
		el := &s.Elements[j]
		ents[j].Size = int32(el.Length(mode))
		ents[j].Key, r.key = internKey(r.keys, el, mode, r.key)
	}
}

// remapSet maps the ids of s, whose elements' Tokens slice run in order,
// through remap, then sorts and deduplicates each element's, compacting
// them towards the front of run. A run left with repeats' slack at its end
// is copied to its exact size.
func remapSet(s *Set, run, remap []tokens.ID) {
	chunks := s.ChunkIDs()
	for k, id := range chunks {
		chunks[k] = remap[id]
	}
	for k, id := range run {
		run[k] = remap[id]
	}
	w := 0
	for j := range s.Elements {
		el := &s.Elements[j]
		n := copy(run[w:], tokens.SortUnique(el.Tokens))
		el.Tokens = nil
		if n > 0 {
			el.Tokens = run[w : w+n : w+n]
		}
		w += n
	}
	if w == len(run) {
		return
	}
	exact := cloneIDs(run[:w])
	w = 0
	for j := range s.Elements {
		el := &s.Elements[j]
		if n := len(el.Tokens); n > 0 {
			el.Tokens = exact[w : w+n : w+n]
			w += n
		}
	}
}

// cloneIDs copies ids into an exactly sized slice (nil when empty).
func cloneIDs(ids []tokens.ID) []tokens.ID {
	if len(ids) == 0 {
		return nil
	}
	return append(make([]tokens.ID, 0, len(ids)), ids...)
}
