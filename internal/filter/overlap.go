package filter

import (
	"silkmoth/internal/index"
	"silkmoth/internal/tokens"
)

// Overlap computes overlap rows: for one reference element and one indexed
// set S, which elements of S share a token with it, and how many. It walks
// the reference element's tokens through the inverted index, locates S's
// postings of each by binary search (the walk of §5.2's nearest-neighbor
// search) and counts postings per element. Token slices and posting lists
// are duplicate-free, so the number of times element e of S turns up is
// exactly |r ∩ e| — the ScanCount of the prefix-filter literature — and a
// token-based similarity is a pure function of that count and the two
// sizes (sim.JaccardFromOverlap and its siblings). The nearest-neighbor
// search and exact verification both read their similarities off it
// instead of intersecting token slices pair by pair; an element the walk
// does not reach shares no token and scores 0.
//
// The marks are stamped with the walk's epoch, so starting a walk costs
// nothing per element of S, and every buffer is reused: a warmed Overlap
// allocates nothing. The zero value is ready to use. An Overlap is not safe
// for concurrent use; every worker owns its own.
type Overlap struct {
	// marks[e] belongs to the current walk when its epoch is the walk's.
	marks []overlapMark
	epoch uint32
	// touched lists the current walk's elements in order of first meeting.
	touched []int32
	// scratch is the decode buffer SetRangeInto fills when a probed range
	// must come off a compressed container.
	scratch []index.Posting
}

type overlapMark struct {
	epoch uint32
	n     int32
}

// Walk computes the overlap row of a reference element with the given
// (sorted, duplicate-free) tokens against set `set` of ix. It returns the
// elements of the set that share at least one of the tokens, in the order
// the walk first met them; Count gives each one's overlap. The row is valid
// until the next Walk.
//
//silkmoth:hotpath
func (o *Overlap) Walk(ix *index.Inverted, toks []tokens.ID, set int32) []int32 {
	n := len(ix.Directory().Set(set))
	if len(o.marks) < n {
		o.marks = append(o.marks, make([]overlapMark, n-len(o.marks))...)
	}
	o.epoch++
	if o.epoch == 0 { // wrapped: stale marks could collide, reset
		clear(o.marks)
		o.epoch = 1
	}
	touched := o.touched[:0]
	for _, t := range toks {
		var rng []index.Posting
		rng, o.scratch = ix.SetRangeInto(t, set, o.scratch)
		for _, p := range rng {
			m := &o.marks[p.Elem]
			if m.epoch != o.epoch {
				*m = overlapMark{epoch: o.epoch, n: 1}
				touched = append(touched, p.Elem)
			} else {
				m.n++
			}
		}
	}
	o.touched = touched
	return touched
}

// Count returns the number of tokens element elem — one Walk returned —
// shares with the walk's reference element.
//
//silkmoth:hotpath
func (o *Overlap) Count(elem int32) int { return int(o.marks[elem].n) }
