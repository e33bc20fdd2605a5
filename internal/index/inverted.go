// Package index implements SilkMoth's inverted index (paper §3): for each
// token t, I[t] is the list of ⟨set, element⟩ pairs containing t, used for
// candidate selection, the check filter, and nearest-neighbor search.
//
// Postings are held one way, behind one read rule: I[t] is container t of
// the index's container store, when it has one, followed by the slice
// lists[t]. A heap index (Build, FromLists) has no container store, so its
// slices are its lists. A compressed index (BuildCompressed, Compress,
// FromContainers) encodes every list as an adaptive container — possibly
// aliasing a memory-mapped snapshot — and its slices hold only the postings
// of sets appended since: those sets carry larger ids than any set in a
// container, so the two parts concatenate in (Set, Elem) order. Rebuild
// re-encodes a compressed index from the collection, leaving its slices
// empty.
//
// Beside the posting lists the filters read an element directory
// (Directory): per indexed element its content key and its size, in one
// flat table addressed by global element id, base[Set]+Elem. It is the
// indexed collection's element table (dataset.Collection.Dir), which the
// index reads and never copies. Its base table is dataset.ElemBase of the
// indexed sets, the id space bitmap containers are defined over, so a
// compressed index keeps no table of its own: its decoders are handed the
// prefix of that base that covers the sets the containers were encoded
// with (CheckDirectory verifies all of this against the collection).
package index

import (
	"sort"
	"sync/atomic"

	"silkmoth/internal/dataset"
	"silkmoth/internal/lru"
	"silkmoth/internal/tokens"
)

// Posting locates one element occurrence of a token: element Elem of set Set
// in the indexed collection. It aliases dataset.Posting — the snapshot wire
// form — so saved posting lists import and export without copying.
type Posting = dataset.Posting

// Inverted is an inverted index over a tokenized collection. Posting lists
// are sorted by (Set, Elem), which Build guarantees by construction, so
// per-set ranges can be located by binary search (paper footnote 7).
//
// The postings of token t are container t of cs (when cs is set) followed
// by lists[t], whatever constructor made the index; a compressed index
// materializes a container only when a probe needs it, holding hot decodes
// in a byte-budgeted LRU. Readers may run concurrently (the cache is
// internally locked), while AppendSets/Rebuild require the caller's
// exclusive lock.
type Inverted struct {
	// lists[t] is the slice tail of I[t], indexed by token id: the whole
	// list when cs is nil, else the postings of sets appended since the
	// containers were encoded.
	lists [][]Posting
	coll  *dataset.Collection

	// cs holds the head of every list as an encoded container; nil in a
	// heap index.
	cs       *dataset.ContainerStore
	csShared bool // cs may alias borrowed (mmap) memory
	// encSets is how many sets the containers in cs were encoded with:
	// their element-base table is the collection's, up to that set.
	encSets int
	// cache holds materialized lists (container and tail) of a compressed
	// index; nil in a heap index, where its nil-safe methods do nothing.
	cache *lru.Cache[int, []Posting]

	cacheHits, cacheMisses, decodeErrs atomic.Int64
}

// Build indexes every element token of every set in c. Element token slices
// are deduplicated (dataset builders guarantee this), so each ⟨set, elem⟩
// appears at most once per list, matching the paper's deduplicated index
// (footnote 4).
func Build(c *dataset.Collection) *Inverted { return BuildParallel(c, 1) }

// BuildParallel is Build with the posting lists filled by parts goroutines,
// one per contiguous set-id range (dataset.Range); the lists are Build's, posting for
// posting. parts < 2 is Build.
func BuildParallel(c *dataset.Collection, parts int) *Inverted {
	return &Inverted{lists: buildLists(c, parts), coll: c}
}

// buildLists computes the heap posting lists of c. Each of parts set-id
// ranges first counts its postings per token; a prefix sum over the ranges
// turns the counts into every range's offset in each list, so each list is
// allocated once at its exact length and the ranges then fill their slices
// of it concurrently. Ranges are contiguous in set id, so every list comes
// out (Set, Elem)-sorted.
func buildLists(c *dataset.Collection, parts int) [][]Posting {
	nt, n := c.Dict.Size(), len(c.Sets)
	parts = max(1, min(parts, n))
	// at[k][t] is range k's posting count of token t, then its next write
	// offset in lists[t].
	at := make([][]int32, parts)
	dataset.InRanges(n, parts, func(k, lo, hi int) {
		counts := make([]int32, nt)
		for i := lo; i < hi; i++ {
			for j := range c.Sets[i].Elements {
				for _, t := range c.Sets[i].Elements[j].Tokens {
					counts[t]++
				}
			}
		}
		at[k] = counts
	})
	lists := make([][]Posting, nt)
	for t := range lists {
		var total int32
		for _, counts := range at {
			total, counts[t] = total+counts[t], total
		}
		if total > 0 {
			lists[t] = make([]Posting, total)
		}
	}
	dataset.InRanges(n, parts, func(k, lo, hi int) {
		next := at[k]
		for i := lo; i < hi; i++ {
			for j := range c.Sets[i].Elements {
				for _, t := range c.Sets[i].Elements[j].Tokens {
					lists[t][next[t]] = Posting{Set: int32(i), Elem: int32(j)}
					next[t]++
				}
			}
		}
	})
	return lists
}

// FromLists wraps imported posting lists (a loaded snapshot's) as an index
// over c without rebuilding anything. lists is indexed by token id and each
// list must be sorted by (Set, Elem) — the order SaveSnapshot persists.
// The index takes ownership of lists, extending it to the dictionary's
// size.
func FromLists(c *dataset.Collection, lists [][]Posting) *Inverted {
	for len(lists) < c.Dict.Size() {
		lists = append(lists, nil)
	}
	return &Inverted{lists: lists, coll: c}
}

// Collection returns the collection this index was built over.
func (ix *Inverted) Collection() *dataset.Collection { return ix.coll }

// tail returns lists[t], the postings of t that no container holds (nil
// for an id past the lists, which a query gives the tokens the collection
// never held).
func (ix *Inverted) tail(t tokens.ID) []Posting {
	if int(t) < len(ix.lists) {
		return ix.lists[t]
	}
	return nil
}

// List returns the posting list for token t, or nil when t never occurs in
// the indexed collection. A container is materialized on first probe and
// held in the LRU; prefer Cursor for one-shot scans of large lists.
func (ix *Inverted) List(t tokens.ID) []Posting {
	l := ix.tail(t)
	if ix.cs == nil {
		return l
	}
	return ix.materialize(int(t), l)
}

// ListLen returns |I[t]|, the signature selection cost of token t
// (paper §4.3). A container's length is read from its header — no decode.
func (ix *Inverted) ListLen(t tokens.ID) int {
	n := len(ix.tail(t))
	if ix.cs == nil {
		return n
	}
	c, ok := dataset.ContainerLen(ix.cs.Blob(int(t)))
	if !ok {
		ix.decodeErrs.Add(1)
	}
	return n + c
}

// SetRange returns the postings of token t that belong to the given set,
// located by binary search within the sorted list.
func (ix *Inverted) SetRange(t tokens.ID, set int32) []Posting {
	r, _ := ix.SetRangeInto(t, set, nil)
	return r
}

// setRangeOf binary-searches a sorted list for one set's postings.
func setRangeOf(l []Posting, set int32) []Posting {
	lo := sort.Search(len(l), func(i int) bool { return l[i].Set >= set })
	hi := lo
	for hi < len(l) && l[hi].Set == set {
		hi++
	}
	return l[lo:hi]
}

// AppendSets indexes the collection's sets from index `from` onward
// (dataset.Append has extended the element table already), extending the
// token dimension to the dictionary's current size. Because new sets carry the largest
// ids, appending their postings to the slice tails preserves each list's
// (Set, Elem) order, so lookups stay correct without re-sorting. Not safe
// concurrently with readers.
func (ix *Inverted) AppendSets(from int) {
	c := ix.coll
	for len(ix.lists) < c.Dict.Size() {
		ix.lists = append(ix.lists, nil)
	}
	// A cached decode holds container and tail together, so it is dropped
	// once per token, at its first posting here (a tail already ending in
	// a set at or past from has had its decode dropped); a heap index has
	// no cache.
	for i := from; i < len(c.Sets); i++ {
		for j := range c.Sets[i].Elements {
			for _, t := range c.Sets[i].Elements[j].Tokens {
				l := ix.lists[t]
				if len(l) == 0 || int(l[len(l)-1].Set) < from {
					ix.cache.Remove(int(t))
				}
				ix.lists[t] = append(l, Posting{Set: int32(i), Elem: int32(j)})
			}
		}
	}
}

// Rebuild recomputes every posting list from the collection's current
// contents in place, keeping the Inverted pointer stable for engines that
// hold it. Sets whose Elements were cleared (dataset.Collection.DropSets,
// which lays the element table out afresh first) contribute nothing, so
// their stale postings disappear and the memory is reclaimed. A compressed index then encodes the rebuilt lists as fresh
// containers, detaching from any mapped snapshot. Not safe concurrently
// with readers.
func (ix *Inverted) Rebuild() {
	ix.lists = buildLists(ix.coll, 1)
	if ix.cs != nil {
		ix.encode()
	}
}

// NumTokens returns the number of token ids the index covers.
func (ix *Inverted) NumTokens() int { return max(len(ix.lists), ix.cs.NumTokens()) }

// TotalPostings returns the total number of postings across all lists,
// which is the index's dominant logical size. Compressed containers are
// counted from their headers without decoding.
func (ix *Inverted) TotalPostings() int {
	n := 0
	for _, l := range ix.lists {
		n += len(l)
	}
	for t := range ix.cs.NumTokens() {
		c, _ := dataset.ContainerLen(ix.cs.Blob(t))
		n += c
	}
	return n
}
