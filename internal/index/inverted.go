// Package index implements SilkMoth's inverted index (paper §3): for each
// token t, I[t] is the list of ⟨set, element⟩ pairs containing t, used for
// candidate selection, the check filter, and nearest-neighbor search.
//
// Beside the posting lists every index keeps an element directory
// (Directory): per indexed element its content key and its size, in one
// flat table addressed by global element id, base[Set]+Elem. It is what the
// filters read per posting instead of the element itself. The directory is
// derived state and independent of the posting form: every constructor
// (Build, BuildCompressed, FromLists, FromContainers) derives it from the
// collection, AppendSets extends it, Rebuild recomputes it, and nothing
// persists it — a snapshot holds elements and postings only. Its base table
// is dataset.ElemBase of the indexed sets, the id space bitmap containers
// are defined over, so the compressed form keeps no table of its own: its
// decoders are handed the prefix of the directory's base that covers the
// sets the containers were encoded with (CheckDirectory verifies all of
// this against the collection).
package index

import (
	"sort"
	"sync"
	"sync/atomic"

	"silkmoth/internal/dataset"
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
// The index stores its lists in one of two forms. The heap form (Build,
// FromLists) keeps every list as a materialized []Posting in lists. The
// compressed form (BuildCompressed, FromContainers) keeps lists as adaptive
// container blobs in cs — possibly aliasing a memory-mapped snapshot — and
// materializes a list only when a probe needs it, holding hot decodes in a
// byte-budgeted LRU. Either form answers the same read API with identical
// results; readers may run concurrently (the cache is internally locked),
// while AppendSets/Rebuild require the caller's exclusive lock as before.
type Inverted struct {
	lists [][]Posting
	coll  *dataset.Collection

	// dir is the element directory: derived from coll, maintained by
	// every constructor, AppendSets and Rebuild.
	dir Directory

	// Compressed-form state; cs == nil means pure heap form.
	cs       *dataset.ContainerStore
	csShared bool // cs may alias borrowed (mmap) memory
	compress bool // Rebuild re-encodes instead of going to heap lists
	// encSets is how many sets the containers in cs were encoded with:
	// their element-base table is the directory's, up to that set.
	encSets int
	// extras overlays postings of sets appended after cs was built,
	// indexed by token id. Appended sets carry larger ids than anything
	// in cs, so container postings followed by extras stay sorted.
	extras [][]Posting
	cache  *listCache

	cacheHits, cacheMisses, decodeErrs atomic.Int64
}

// Build indexes every element token of every set in c. Element token slices
// are deduplicated (dataset builders guarantee this), so each ⟨set, elem⟩
// appears at most once per list, matching the paper's deduplicated index
// (footnote 4).
func Build(c *dataset.Collection) *Inverted { return BuildParallel(c, 1) }

// BuildParallel is Build with the posting lists filled by parts goroutines,
// one per contiguous set-id range (Range); the lists are Build's, posting for
// posting. parts < 2 is Build.
func BuildParallel(c *dataset.Collection, parts int) *Inverted {
	return &Inverted{lists: buildLists(c, parts), coll: c, dir: buildDirectory(c)}
}

// Range returns the k-th of parts contiguous ranges that cut the set ids
// [0, n): [k·n/parts, (k+1)·n/parts).
func Range(k, parts, n int) (lo, hi int) { return k * n / parts, (k + 1) * n / parts }

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
	inRanges(n, parts, func(k, lo, hi int) {
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
	inRanges(n, parts, func(k, lo, hi int) {
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

// inRanges runs fn(k, lo, hi) for each of the parts ranges Range cuts [0, n)
// into, on one goroutine per range when there is more than one.
func inRanges(n, parts int, fn func(k, lo, hi int)) {
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

// FromLists wraps imported posting lists (a loaded snapshot's) as an index
// over c without rebuilding anything. lists is indexed by token id and each
// list must be sorted by (Set, Elem) — the order SaveSnapshot persists.
// The index takes ownership of lists, extending it to the dictionary's
// size.
func FromLists(c *dataset.Collection, lists [][]Posting) *Inverted {
	for len(lists) < c.Dict.Size() {
		lists = append(lists, nil)
	}
	return &Inverted{lists: lists, coll: c, dir: buildDirectory(c)}
}

// Collection returns the collection this index was built over.
func (ix *Inverted) Collection() *dataset.Collection { return ix.coll }

// List returns the posting list for token t, or nil when t never occurs in
// the indexed collection (including ids interned after Build). In the
// compressed form this materializes the container on first probe and holds
// it in the LRU; prefer Cursor for one-shot scans of large lists.
func (ix *Inverted) List(t tokens.ID) []Posting {
	if int(t) < len(ix.lists) {
		if l := ix.lists[t]; l != nil {
			return l
		}
	}
	if ix.cs == nil {
		return nil
	}
	return ix.materialize(int(t))
}

// ListLen returns |I[t]|, the signature selection cost of token t
// (paper §4.3). In the compressed form this reads the container header —
// no decode.
func (ix *Inverted) ListLen(t tokens.ID) int {
	if int(t) < len(ix.lists) {
		if l := ix.lists[t]; l != nil {
			return len(l)
		}
	}
	if ix.cs == nil {
		return 0
	}
	n, ok := dataset.ContainerLen(ix.cs.Blob(int(t)))
	if !ok {
		ix.decodeErrs.Add(1)
		n = 0
	}
	if int(t) < len(ix.extras) {
		n += len(ix.extras[t])
	}
	return n
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

// AppendSets indexes the collection's sets from index `from` onward,
// extending the token dimension to the dictionary's current size and the
// element directory to the new sets. Because new sets carry the largest
// ids, appending their postings preserves each list's (Set, Elem) order, so
// lookups stay correct without re-sorting. Not safe concurrently with
// readers.
func (ix *Inverted) AppendSets(from int) {
	c := ix.coll
	ix.dir.extend(c)
	if ix.cs != nil {
		for len(ix.extras) < c.Dict.Size() {
			ix.extras = append(ix.extras, nil)
		}
		for i := from; i < len(c.Sets); i++ {
			for j := range c.Sets[i].Elements {
				for _, t := range c.Sets[i].Elements[j].Tokens {
					ix.addCompressed(t, Posting{Set: int32(i), Elem: int32(j)})
				}
			}
		}
		return
	}
	for len(ix.lists) < c.Dict.Size() {
		ix.lists = append(ix.lists, nil)
	}
	for i := from; i < len(c.Sets); i++ {
		for j := range c.Sets[i].Elements {
			for _, t := range c.Sets[i].Elements[j].Tokens {
				ix.lists[t] = append(ix.lists[t], Posting{Set: int32(i), Elem: int32(j)})
			}
		}
	}
}

// addCompressed routes one appended posting in the compressed form: tokens
// with a materialized heap list extend it directly; everything else goes to
// the extras overlay, invalidating any cached decode of that token so the
// next probe re-materializes container + overlay together.
func (ix *Inverted) addCompressed(t tokens.ID, p Posting) {
	if int(t) < len(ix.lists) && ix.lists[t] != nil {
		ix.lists[t] = append(ix.lists[t], p)
		return
	}
	ix.extras[t] = append(ix.extras[t], p)
	ix.cache.remove(int(t))
}

// Rebuild recomputes every posting list and the element directory from the
// collection's current contents in place, keeping the Inverted pointer stable for engines that
// hold it. Sets whose Elements were cleared (tombstoned and compacted)
// contribute nothing, so their stale postings disappear and the memory is
// reclaimed. A compressed index re-encodes fresh containers (absorbing the
// extras overlay and detaching from any mapped snapshot); a heap index
// rebuilds heap lists. Not safe concurrently with readers.
func (ix *Inverted) Rebuild() {
	ix.dir = buildDirectory(ix.coll)
	lists := buildLists(ix.coll, 1)
	if ix.compress {
		ix.adoptCompressed(lists)
		return
	}
	ix.lists = lists
}

// NumTokens returns the number of token ids the index covers.
func (ix *Inverted) NumTokens() int {
	n := len(ix.lists)
	if ix.cs != nil && ix.cs.NumTokens() > n {
		n = ix.cs.NumTokens()
	}
	if len(ix.extras) > n {
		n = len(ix.extras)
	}
	return n
}

// TotalPostings returns the total number of postings across all lists,
// which is the index's dominant logical size. Compressed containers are
// counted from their headers without decoding.
func (ix *Inverted) TotalPostings() int {
	n := 0
	for _, l := range ix.lists {
		n += len(l)
	}
	for _, l := range ix.extras {
		n += len(l)
	}
	if ix.cs != nil {
		for t := 0; t < ix.cs.NumTokens(); t++ {
			if t < len(ix.lists) && ix.lists[t] != nil {
				continue // materialized: already counted
			}
			if c, ok := dataset.ContainerLen(ix.cs.Blob(t)); ok {
				n += c
			}
		}
	}
	return n
}
