package dataset

import (
	"silkmoth/internal/tokens"
)

// QueryScratch builds query collections out of reusable buffers. A query
// reads the dictionary and never writes it: tokens tokenize through a
// read-only tokens.Query (a token the collection never held gets an id
// past the dictionary's size, which has no posting list) and element keys
// are looked up, so no stream of queries grows either table. Otherwise it
// produces what Build produces — pinned by TestQueryScratchMatchesSerialBuild
// — but stages every element's token ids in one arena and every token's
// bytes in tokenizer scratch, so a warmed-up scratch tokenizes a query
// with a handful of allocations instead of several per element.
//
// The returned Collection, its Sets, its element table and every Element
// slice alias the scratch's buffers: they are valid only until the next
// Build on the same scratch. Callers must not retain them past the query
// (the engine's result types copy everything they report, so pooling a
// scratch per in-flight query is safe). A QueryScratch is not safe for concurrent use,
// but any number of them may read one dictionary at once.
type QueryScratch struct {
	tok   tokens.Scratch
	in    tokens.Query // the read-only interner the tokens go through
	ids   []tokens.ID  // arena: all elements' Tokens, span-indexed
	runs  []tokens.ID  // arena: every set's chunk run (ModeQGram), back to back
	key   []byte       // staging for word-mode element keys
	spans []elemSpan
	elems []Element
	sets  []Set
	base  []int32    // the element table's base
	ents  []DirEntry // the element table's entries
	coll  Collection
}

// elemSpan records one element's token slice as arena offsets. Offsets
// stay valid across arena reallocation, so elements materialize only
// after all appends are done.
type elemSpan struct {
	raw            string
	tokOff, tokEnd int
}

// Build tokenizes query sets against an existing collection's dictionary
// without writing it. A novel token has one id across all the sets of one
// Build, and distinct novel tokens have distinct ids. The result is valid
// until the next Build on this scratch.
//
//silkmoth:hotpath
func (qs *QueryScratch) Build(dict *tokens.Dictionary, raws []RawSet, mode TokenMode, q int) *Collection {
	qs.in.Reset(dict)
	qs.ids = qs.ids[:0]
	qs.runs = qs.runs[:0]
	qs.spans = qs.spans[:0]
	total := 0
	for _, rs := range raws {
		total += len(rs.Elements)
	}
	for _, rs := range raws {
		// A set's chunk run: its end offsets (relative to the run, as
		// Set.chunks stores them), then its chunk ids.
		run := len(qs.runs)
		if mode == ModeQGram {
			for range rs.Elements {
				qs.runs = append(qs.runs, 0)
			}
		}
		for j, raw := range rs.Elements {
			sp := elemSpan{raw: raw, tokOff: len(qs.ids)}
			if mode == ModeWord {
				qs.ids = qs.tok.AppendWordIDs(qs.ids, &qs.in, raw)
			} else {
				qs.ids = qs.tok.AppendQGramIDs(qs.ids, &qs.in, raw, q)
				qs.runs = qs.tok.AppendQChunkIDs(qs.runs, &qs.in, raw, q)
				qs.runs[run+j] = tokens.ID(len(qs.runs) - run)
			}
			sp.tokEnd = sp.tokOff + len(tokens.SortUnique(qs.ids[sp.tokOff:]))
			qs.ids = qs.ids[:sp.tokEnd]
			qs.spans = append(qs.spans, sp)
		}
	}
	// Materialize elements from the spans — only now are arena offsets
	// final. The element and set backings are sized up front so the
	// sub-slices handed out below never move.
	if cap(qs.elems) < total {
		qs.elems = make([]Element, total)
	} else {
		qs.elems = qs.elems[:total]
	}
	if cap(qs.sets) < len(raws) {
		qs.sets = make([]Set, len(raws))
	} else {
		qs.sets = qs.sets[:len(raws)]
	}
	qs.base = append(qs.base[:0], 0)
	qs.ents = qs.ents[:0]
	ei, run := 0, 0
	for si, rs := range raws {
		first := ei
		for range rs.Elements {
			sp := &qs.spans[ei]
			el := &qs.elems[ei]
			*el = Element{Raw: sp.raw, Tokens: qs.ids[sp.tokOff:sp.tokEnd:sp.tokEnd]}
			ent := DirEntry{Size: int32(el.Length(mode))}
			ent.Key, qs.key = lookupKey(dict.Keys(), el, mode, qs.key)
			qs.ents = append(qs.ents, ent)
			ei++
		}
		qs.base = append(qs.base, int32(ei))
		set := Set{Name: rs.Name, Elements: qs.elems[first:ei:ei]}
		if n := len(rs.Elements); mode == ModeQGram && n > 0 {
			end := run + int(qs.runs[run+n-1])
			if end > run+n { // a set whose elements are all empty has no chunks
				set.chunks = qs.runs[run:end:end]
			}
			run = end
		}
		qs.sets[si] = set
	}
	cq := q
	if mode == ModeWord {
		cq = 0
	}
	qs.coll = Collection{Sets: qs.sets, Dir: Directory{base: qs.base, ents: qs.ents}, Dict: dict, Mode: mode, Q: cq}
	return &qs.coll
}
