package dataset

import (
	"silkmoth/internal/tokens"
)

// QueryScratch builds query collections out of reusable buffers: a writer
// under the lookUp policy. A query reads the dictionary and never writes
// it: tokens tokenize through a read-only tokens.Query (a token the
// collection never held gets an id past the dictionary's size, which has
// no posting list) and element keys are looked up, so no stream of queries
// grows either table. Otherwise it produces what Build produces — pinned by
// TestQueryScratchMatchesSerialBuild — and a warmed-up scratch allocates
// nothing (TestQueryScratchAllocGate).
//
// The returned Collection, its Sets, its element table and every Element
// slice alias the scratch's buffers: they are valid only until the next
// Build on the same scratch. Callers must not retain them past the query
// (the engine's result types copy everything they report, so pooling a
// scratch per in-flight query is safe). A QueryScratch is not safe for concurrent use,
// but any number of them may read one dictionary at once.
type QueryScratch struct {
	w    writer
	coll Collection
}

// Build tokenizes query sets against an existing collection's dictionary
// without writing it. A novel token has one id across all the sets of one
// Build, and distinct novel tokens have distinct ids. The result is valid
// until the next Build on this scratch.
//
//silkmoth:hotpath
func (qs *QueryScratch) Build(dict *tokens.Dictionary, raws []RawSet, mode TokenMode, q int) *Collection {
	if mode == ModeWord {
		q = 0
	}
	d := &qs.coll.Dir
	qs.coll = Collection{Sets: qs.coll.Sets[:0], Dir: Directory{base: append(d.base[:0], 0), ents: d.ents[:0]}, Dict: dict, Mode: mode, Q: q}
	qs.w.start(&qs.coll, lookUp, 0)
	for _, rs := range raws {
		qs.w.writeRaw(rs)
	}
	qs.w.finish(nil)
	return &qs.coll
}
