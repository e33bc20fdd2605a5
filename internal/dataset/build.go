package dataset

import (
	"sync"

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
// ranges, each written by its own writer. The build runs in five steps and
// produces the one-range build id for id:
//
//  1. every range writes its sets in parallel: range 0 interns into dict
//     (internDict), the others into their own tables (internLocal);
//  2. the ranges' token strings are interned into dict in range order,
//     which is the order a serial build first meets them in;
//  3. every range writes its element table entries (writer.finish): range
//     0 interns its keys into dict's key table, and the others map their
//     sets to dict's token ids first and intern into their own;
//  4. the ranges' keys are interned into dict's key table in range order;
//  5. every range but the first maps its element keys to dict's.
//
// The collection's sets and element table are laid out up front from the
// raw sets' sizes, so each range writes its own slots.
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
	ws := make([]writer, parts)
	InRanges(len(raws), parts, func(k, lo, hi int) {
		p := internDict
		if k > 0 {
			p = internLocal
		}
		ws[k].start(c, p, lo)
		for _, rs := range raws[lo:hi] {
			ws[k].writeRaw(rs)
		}
	})
	remaps := make([][]tokens.ID, parts)
	for k := 1; k < parts; k++ {
		remaps[k] = dict.InternTable(&ws[k].localToks)
	}
	InRanges(len(raws), parts, func(k, lo, hi int) { ws[k].finish(remaps[k]) })
	for k := 1; k < parts; k++ {
		remaps[k] = dict.Keys().InternTable(&ws[k].localKeys)
	}
	InRanges(len(raws), parts, func(k, lo, hi int) {
		for i := lo; k > 0 && i < hi; i++ {
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
