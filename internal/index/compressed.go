package index

import (
	"math"
	"sort"
	"sync"

	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
)

// DefaultPostingCacheBytes bounds the LRU of materialized posting lists a
// compressed index keeps when the caller passes no explicit budget.
const DefaultPostingCacheBytes = 64 << 20

// BuildCompressed indexes c like Build but stores every posting list as an
// adaptive container blob (array / packed / bitmap, whichever is smallest),
// trading decode work on first probe for a fraction of the heap footprint.
// cacheBytes bounds the LRU of materialized hot lists; <= 0 selects
// DefaultPostingCacheBytes.
func BuildCompressed(c *dataset.Collection, cacheBytes int64) *Inverted {
	ix := Build(c)
	ix.Compress(cacheBytes)
	return ix
}

// Compress turns a heap-form index into the compressed form BuildCompressed
// builds, encoding its lists as containers and dropping them; cacheBytes as
// in BuildCompressed. No-op on a compressed index. Not safe concurrently
// with readers.
func (ix *Inverted) Compress(cacheBytes int64) {
	if ix.compress {
		return
	}
	ix.compress, ix.cache = true, newListCache(cacheBytes)
	ix.adoptCompressed(ix.lists)
}

// FromContainers wraps a loaded snapshot's container store as an index over
// c without decoding anything: a posting list is materialized only when a
// probe first touches it. When shared is true the store's bytes are
// borrowed (a memory-mapped snapshot); UnshareContainers must be called
// before the backing goes away. cacheBytes as in BuildCompressed.
//
// The element-base table is the directory's, derived from c, which matches
// the table the containers were encoded with: the snapshot writer encodes
// dead slots as zero-element placeholders, exactly how they load back.
func FromContainers(c *dataset.Collection, cs *dataset.ContainerStore, shared bool, cacheBytes int64) *Inverted {
	return &Inverted{
		coll:     c,
		dir:      buildDirectory(c),
		cs:       cs,
		csShared: shared,
		compress: true,
		encSets:  len(c.Sets),
		cache:    newListCache(cacheBytes),
	}
}

// Compressed reports whether the index stores its lists as containers.
func (ix *Inverted) Compressed() bool { return ix.compress }

// SharesContainers reports whether the container store borrows its bytes
// from an external backing (a memory-mapped snapshot): the owner must call
// UnshareContainers before that backing is released.
func (ix *Inverted) SharesContainers() bool { return ix.cs != nil && ix.csShared }

// encBase is the element-base table the containers were encoded against:
// the directory's base, cut to the sets that existed then, so a decoder's
// set-range checks reject whatever the containers cannot hold.
func (ix *Inverted) encBase() []int32 { return ix.dir.base[:ix.encSets+1] }

// adoptCompressed replaces the index's storage with freshly encoded
// containers for lists — computed, like the directory, from the
// collection's current contents — dropping any extras overlay and cache.
func (ix *Inverted) adoptCompressed(lists [][]Posting) {
	ix.encSets = len(ix.coll.Sets)
	eb := ix.encBase()
	b := dataset.NewContainerStoreBuilder(len(lists))
	for _, l := range lists {
		b.Add(l, eb)
	}
	ix.cs = b.Finish()
	ix.csShared = false
	ix.lists = nil
	ix.extras = nil
	ix.cache.reset()
}

// UnshareContainers copies a borrowed container store onto the heap so the
// index survives its backing (an unmapped snapshot). No-op when the store
// is already owned. Cached materializations are heap copies and need no
// treatment. Requires the caller's exclusive lock.
func (ix *Inverted) UnshareContainers() {
	if ix.cs != nil && ix.csShared {
		ix.cs = ix.cs.Clone()
		ix.csShared = false
	}
}

// materialize decodes token t's container (plus any extras overlay) into a
// heap list, serving repeats from the LRU. Decode errors — possible only
// with a corrupted snapshot, since built containers are canonical by
// construction — are counted and yield the valid prefix.
func (ix *Inverted) materialize(t int) []Posting {
	blob := ix.cs.Blob(t)
	var ex []Posting
	if t < len(ix.extras) {
		ex = ix.extras[t]
	}
	if len(blob) == 0 {
		return ex
	}
	if l, ok := ix.cache.get(t); ok {
		ix.cacheHits.Add(1)
		return l
	}
	ix.cacheMisses.Add(1)
	n, _ := dataset.ContainerLen(blob)
	pl := dataset.NewPostingList(blob, ix.encBase())
	out, err := pl.Materialize(make([]Posting, 0, n+len(ex)))
	if err != nil {
		ix.decodeErrs.Add(1)
	}
	out = append(out, ex...)
	ix.cache.put(t, out)
	return out
}

// DecodeErrors returns how many container decodes have failed since the
// index was built or loaded. It only ever grows; a search pass compares two
// readings to learn whether anything it read may be incomplete.
func (ix *Inverted) DecodeErrors() int64 { return ix.decodeErrs.Load() }

// SetRangeInto returns the postings of token t in the given set, plus a
// scratch buffer for the caller to pass back next call. The result aliases
// index storage (heap list, cached decode, or extras) when possible —
// zero-copy — and otherwise is decoded into scratch, so a worker reusing
// its buffer probes compressed lists without steady-state allocation. The
// result is valid only until the next call with the same scratch.
func (ix *Inverted) SetRangeInto(t tokens.ID, set int32, scratch []Posting) (res, scratch2 []Posting) {
	if int(t) < len(ix.lists) {
		if l := ix.lists[t]; l != nil {
			return setRangeOf(l, set), scratch
		}
	}
	if ix.cs == nil {
		return nil, scratch
	}
	// Sets appended after the containers were built live only in extras.
	if int(t) < len(ix.extras) {
		if r := setRangeOf(ix.extras[t], set); len(r) > 0 {
			return r, scratch
		}
	}
	blob := ix.cs.Blob(int(t))
	if len(blob) == 0 {
		return nil, scratch
	}
	if l, ok := ix.cache.get(int(t)); ok {
		ix.cacheHits.Add(1)
		return setRangeOf(l, set), scratch
	}
	pl := dataset.NewPostingList(blob, ix.encBase())
	out, err := pl.SetRange(set, scratch[:0])
	if err != nil {
		ix.decodeErrs.Add(1)
		return nil, out
	}
	return out, out
}

// Cursor iterates one posting list in (Set, Elem) order without requiring
// it to be materialized: heap and cached lists are walked as slices, and
// large cold containers are streamed directly off the compressed bytes.
// The zero Cursor is an exhausted cursor. Not safe for concurrent use;
// obtain with Inverted.Cursor, and cut it to a set range with Cut.
type Cursor struct {
	slice  []Posting
	i      int
	stream bool
	it     dataset.PostingIter
	extras []Posting // streamed after the container's postings
	ix     *Inverted // decode-error accounting for the stream path
	// lo and hi bound a stream to the sets [lo, hi); a slice is cut instead.
	lo, hi int32
}

// Cursor returns a cursor over I[t]. Lists already materialized (heap form,
// tiny, or cache-hot) cost nothing; a cold container either materializes
// through the LRU (small enough to be worth keeping) or streams one posting
// at a time, so scanning a huge long-tail list never allocates its decoded
// form at all.
func (ix *Inverted) Cursor(t tokens.ID) Cursor {
	if int(t) < len(ix.lists) {
		if l := ix.lists[t]; l != nil {
			return Cursor{slice: l}
		}
	}
	if ix.cs == nil {
		return Cursor{}
	}
	blob := ix.cs.Blob(int(t))
	var ex []Posting
	if int(t) < len(ix.extras) {
		ex = ix.extras[t]
	}
	if len(blob) == 0 {
		return Cursor{slice: ex}
	}
	if l, ok := ix.cache.get(int(t)); ok {
		ix.cacheHits.Add(1)
		return Cursor{slice: l}
	}
	// Cold. Materialize mid-size lists (repeat probes hit the cache);
	// stream anything that would claim an outsized share of the budget.
	n, ok := dataset.ContainerLen(blob)
	if !ok {
		ix.decodeErrs.Add(1)
		return Cursor{slice: ex}
	}
	if int64(n)*postingBytes <= ix.cache.budget/4 {
		return Cursor{slice: ix.materialize(int(t))}
	}
	pl := dataset.NewPostingList(blob, ix.encBase())
	return Cursor{stream: true, it: pl.Iter(), extras: ex, ix: ix, hi: math.MaxInt32}
}

// Cut restricts an unstarted cursor to the postings whose set lies in
// [lo, hi). A list opened once serves every set-id range of a pass: each
// range cuts a copy. A list walked as a slice is cut to the range by two
// binary searches, so its postings carry no per-posting test; a streamed
// container decodes its way to lo and stops at the first posting past hi.
//
//silkmoth:hotpath
func (c *Cursor) Cut(lo, hi int32) {
	if c.stream {
		c.lo, c.hi = lo, hi
		i, j := span(c.extras, lo, hi)
		c.extras = c.extras[i:j]
	} else {
		i, j := span(c.slice, lo, hi)
		c.slice = c.slice[i:j]
	}
}

// Take returns c cut to [lo, hi) and moves an unstarted c past hi: a pass
// that runs its set-id ranges in order then finds each list already
// starting at the next range, with nothing to search. A streamed container
// is not moved; its cut decodes its way to lo.
//
//silkmoth:hotpath
func (c *Cursor) Take(lo, hi int32) Cursor {
	d := *c
	if c.stream {
		d.Cut(lo, hi)
		return d
	}
	i, j := span(c.slice, lo, hi)
	d.slice, c.slice = c.slice[i:j], c.slice[j:]
	return d
}

// span returns the bounds [i, j) of the postings of a sorted list whose set
// lies in [lo, hi). An end the list does not reach is not searched for.
func span(l []Posting, lo, hi int32) (i, j int) {
	i, j = 0, len(l)
	if j > 0 && l[0].Set < lo {
		i = sort.Search(j, func(k int) bool { return l[k].Set >= lo })
	}
	if j > i && l[j-1].Set >= hi {
		j = i + sort.Search(j-i, func(k int) bool { return l[i+k].Set >= hi })
	}
	return i, j
}

// Next returns the next posting, or ok=false when the list is exhausted.
// A decode error on the stream path truncates the iteration (counted in
// the index's DecodeErrors stat).
func (c *Cursor) Next() (Posting, bool) {
	if !c.stream {
		if c.i >= len(c.slice) {
			return Posting{}, false
		}
		p := c.slice[c.i]
		c.i++
		return p, true
	}
	for {
		p, ok := c.it.Next()
		if !ok || p.Set >= c.hi {
			break
		}
		if p.Set >= c.lo {
			return p, true
		}
	}
	if c.it.Err() != nil {
		c.ix.decodeErrs.Add(1)
	}
	// Container exhausted: fall through to the extras overlay.
	c.stream = false
	c.slice, c.i = c.extras, 0
	return c.Next()
}

// PostingProvider implementation (dataset.SaveSnapshot's Source): the
// snapshot writer pulls lists straight from the index, reusing encoded
// containers verbatim when the image's element-id space matches.

// EncodedContainer returns token t's container blob when it is exact —
// encoded, with no extras overlay and no materialized override — so the
// snapshot writer can copy it without a decode/encode round-trip. The
// second result is false when the caller must fall back to AppendPostings.
func (ix *Inverted) EncodedContainer(t int) ([]byte, bool) {
	if ix.cs == nil {
		return nil, false
	}
	if t < len(ix.lists) && ix.lists[t] != nil {
		return nil, false
	}
	if t < len(ix.extras) && len(ix.extras[t]) > 0 {
		return nil, false
	}
	if t >= ix.cs.NumTokens() {
		return nil, true // token never indexed: exactly the empty list
	}
	return ix.cs.Blob(t), true
}

// AppendPostings appends I[t] to dst, materializing if needed.
func (ix *Inverted) AppendPostings(t int, dst []Posting) []Posting {
	return append(dst, ix.List(tokens.ID(t))...)
}

// StorageStats describes how the index's postings are stored right now.
type StorageStats struct {
	// Postings is the logical posting count across all lists.
	Postings int
	// HeapBytes approximates materialized posting bytes outside the cache:
	// heap-form lists and the extras overlay.
	HeapBytes int64
	// EncodedBytes is the compressed container store's size (0 for heap
	// form).
	EncodedBytes int64
	// ResidentBytes is the LRU's current holding of decoded hot lists.
	ResidentBytes int64
	// DirectoryBytes is the element directory's heap footprint: 8 bytes an
	// indexed element plus 4 a set, in either form. It is not part of
	// HeapBytes, which counts postings only.
	DirectoryBytes int64
	// CacheHits / CacheMisses / DecodeErrors count cache probes of
	// compressed lists and container decode failures since build/load.
	CacheHits, CacheMisses, DecodeErrors int64
	// Compressed reports the index form.
	Compressed bool
}

// postingBytes is the heap cost of one materialized posting.
const postingBytes = 8

// Storage returns current posting-storage statistics. O(vocabulary) for
// the posting count; intended for stats endpoints, not hot paths.
func (ix *Inverted) Storage() StorageStats {
	st := StorageStats{
		Postings:       ix.TotalPostings(),
		EncodedBytes:   ix.cs.EncodedBytes(),
		DirectoryBytes: ix.dir.bytes(),
		CacheHits:      ix.cacheHits.Load(),
		CacheMisses:    ix.cacheMisses.Load(),
		DecodeErrors:   ix.decodeErrs.Load(),
		Compressed:     ix.compress,
	}
	for _, l := range ix.lists {
		st.HeapBytes += int64(cap(l)) * postingBytes
	}
	for _, l := range ix.extras {
		st.HeapBytes += int64(cap(l)) * postingBytes
	}
	if ix.cache != nil {
		st.ResidentBytes = ix.cache.bytes()
	}
	return st
}

// listCache is a mutex-guarded LRU of materialized posting lists keyed by
// token id, bounded by an approximate byte budget. Concurrent readers of a
// compressed index synchronize only here.
type listCache struct {
	mu      sync.Mutex
	budget  int64
	size    int64
	entries map[int]*cacheEntry
	// Doubly-linked LRU ring through sentinel root: root.next is
	// most-recent, root.prev least-recent.
	root cacheEntry
}

type cacheEntry struct {
	t          int
	list       []Posting
	prev, next *cacheEntry
}

func newListCache(budget int64) *listCache {
	if budget <= 0 {
		budget = DefaultPostingCacheBytes
	}
	c := &listCache{budget: budget, entries: make(map[int]*cacheEntry)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// entryCost approximates an entry's heap footprint: postings plus fixed
// bookkeeping overhead.
func entryCost(list []Posting) int64 { return int64(cap(list))*postingBytes + 64 }

func (c *listCache) get(t int) ([]Posting, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[t]
	if !ok {
		return nil, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.list, true
}

func (c *listCache) put(t int, list []Posting) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[t]; ok {
		// Concurrent miss on the same token: keep the incumbent.
		c.unlink(e)
		c.pushFront(e)
		return
	}
	e := &cacheEntry{t: t, list: list}
	c.entries[t] = e
	c.pushFront(e)
	c.size += entryCost(list)
	// Evict cold entries past the budget, but always retain the newest:
	// an over-budget single list stays until something displaces it.
	for c.size > c.budget && len(c.entries) > 1 {
		old := c.root.prev
		c.unlink(old)
		delete(c.entries, old.t)
		c.size -= entryCost(old.list)
	}
}

func (c *listCache) remove(t int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[t]; ok {
		c.unlink(e)
		delete(c.entries, t)
		c.size -= entryCost(e.list)
	}
}

func (c *listCache) reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[int]*cacheEntry)
	c.root.prev, c.root.next = &c.root, &c.root
	c.size = 0
}

func (c *listCache) bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

func (c *listCache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *listCache) pushFront(e *cacheEntry) {
	e.prev = &c.root
	e.next = c.root.next
	e.prev.next = e
	e.next.prev = e
}
