package dataset

import (
	"silkmoth/internal/tokens"
)

// QueryScratch builds query collections out of reusable buffers. It
// produces exactly what BuildQuery produces — the equivalence is pinned by
// TestQueryScratchMatchesBuildQuery — but stages every element's token ids
// in one arena and every token's bytes in tokenizer scratch, so a warmed-up
// scratch tokenizes a query with a handful of allocations instead of
// several per element.
//
// The returned Collection, its Sets, and every Element slice alias the
// scratch's buffers: they are valid only until the next Build on the same
// scratch. Callers must not retain them past the query (the engine's
// result types copy everything they report, so pooling a scratch per
// in-flight query is safe). A QueryScratch is not safe for concurrent use.
type QueryScratch struct {
	tok   tokens.Scratch
	ids   []tokens.ID // arena: all elements' Tokens then Chunks, span-indexed
	key   []byte      // staging for word-mode element keys
	spans []elemSpan
	elems []Element
	sets  []Set
	coll  Collection
}

// elemSpan records one element's slices as arena offsets. Offsets stay
// valid across arena reallocation, so elements materialize only after all
// appends are done.
type elemSpan struct {
	raw            string
	tokOff, tokEnd int
	chOff, chEnd   int
	length         int
}

// Build tokenizes query sets against an existing collection's dictionary,
// like BuildQuery (element keys are looked up, never interned). The result
// is valid until the next Build on this scratch.
//
//silkmoth:hotpath
func (qs *QueryScratch) Build(dict *tokens.Dictionary, raws []RawSet, mode TokenMode, q int) *Collection {
	qs.ids = qs.ids[:0]
	qs.spans = qs.spans[:0]
	total := 0
	for _, rs := range raws {
		total += len(rs.Elements)
	}
	for _, rs := range raws {
		for _, raw := range rs.Elements {
			sp := elemSpan{raw: raw, tokOff: len(qs.ids)}
			if mode == ModeWord {
				qs.ids = qs.tok.AppendWordIDs(qs.ids, dict, raw)
				sub := tokens.SortUnique(qs.ids[sp.tokOff:])
				qs.ids = qs.ids[:sp.tokOff+len(sub)]
				sp.tokEnd = len(qs.ids)
				sp.length = len(sub)
			} else {
				qs.ids = qs.tok.AppendQGramIDs(qs.ids, dict, raw, q)
				sub := tokens.SortUnique(qs.ids[sp.tokOff:])
				qs.ids = qs.ids[:sp.tokOff+len(sub)]
				sp.tokEnd = len(qs.ids)
				sp.chOff = len(qs.ids)
				qs.ids = qs.tok.AppendQChunkIDs(qs.ids, dict, raw, q)
				sp.chEnd = len(qs.ids)
				sp.length = runeLen(raw)
			}
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
	ei := 0
	for si, rs := range raws {
		first := ei
		for range rs.Elements {
			sp := &qs.spans[ei]
			el := &qs.elems[ei]
			*el = Element{
				Raw:    sp.raw,
				Tokens: qs.ids[sp.tokOff:sp.tokEnd:sp.tokEnd],
				Length: int32(sp.length),
			}
			if mode == ModeQGram {
				el.Chunks = qs.ids[sp.chOff:sp.chEnd:sp.chEnd]
			}
			el.Key = qs.lookupKey(dict, el, mode)
			ei++
		}
		qs.sets[si] = Set{Name: rs.Name, Elements: qs.elems[first:ei:ei]}
	}
	cq := q
	if mode == ModeWord {
		cq = 0
	}
	qs.coll = Collection{Sets: qs.sets, Dict: dict, Mode: mode, Q: cq}
	return &qs.coll
}

// lookupKey is dataset.lookupKey staged through the scratch key buffer:
// same NoKey semantics, but the word-mode key bytes never materialize a
// string (Dictionary.LookupBytes).
//
//silkmoth:hotpath
func (qs *QueryScratch) lookupKey(dict *tokens.Dictionary, e *Element, mode TokenMode) tokens.ID {
	if mode == ModeQGram {
		if e.Raw == "" {
			return NoKey
		}
		if id, ok := dict.Keys().Lookup(e.Raw); ok {
			return id
		}
		return NoKey
	}
	if len(e.Tokens) == 0 {
		return NoKey
	}
	b := qs.key[:0]
	for _, id := range e.Tokens {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	qs.key = b
	if id, ok := dict.Keys().LookupBytes(b); ok {
		return id
	}
	return NoKey
}
