package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Adaptive posting-list containers.
//
// A posting list — every ⟨Set, Elem⟩ occurrence of one token, sorted
// strictly ascending by (Set, Elem) — is stored as one of three container
// encodings chosen per list by size and density:
//
//	array   [0x00][uvarint n][n × (uvarint setDelta, uvarint elem)]
//	        Tiny lists. Deltas are against the previous posting's Set
//	        (the first is absolute), elems are raw uvarints.
//
//	packed  [0x01][uvarint n][uvarint nBlocks]
//	        [skip: nBlocks × (uint32 LE lastSet, uint32 LE endOff)]
//	        [blocks: per block, first posting (uvarint set, uvarint elem)
//	         with the set absolute, then (uvarint setDelta, uvarint elem)]
//	        The long tail. Blocks hold PackedBlockSize postings (the last
//	        may be short); endOff is the block's end relative to the
//	        blocks area, so the skip table supports O(log nBlocks) seeks
//	        and galloping intersection without decoding skipped blocks.
//	        Each block's first set is absolute so blocks decode
//	        standalone.
//
//	bitmap  [0x02][uvarint n][uvarint firstWord][uvarint nWords]
//	        [nWords × uint64 LE]
//	        Dense lists. Bit i of word w is global element id
//	        (firstWord+w)*64 + i, where an element's global id is
//	        elemBase[set] + elem and elemBase is the prefix sum of per-set
//	        element counts (ElemBase). Chosen when it encodes smaller
//	        than packed.
//
// The empty blob (zero bytes) is the empty list; a non-empty blob must
// hold at least one posting. All decoders are written for hostile input:
// arbitrary bytes produce an error, never a panic or an attacker-sized
// allocation (containers inside snapshots are additionally CRC-covered by
// the section framing).
const (
	ContainerArray  = 0x00
	ContainerPacked = 0x01
	ContainerBitmap = 0x02

	// PackedBlockSize is the number of postings per packed block.
	PackedBlockSize = 128

	// ArrayMaxPostings is the largest list stored as a plain array
	// container; longer lists use packed or bitmap.
	ArrayMaxPostings = 24

	skipEntrySize = 8
)

// ErrContainerCorrupt is the sentinel wrapped by posting-container decode
// failures.
var ErrContainerCorrupt = errors.New("dataset: corrupt posting container")

func badContainer(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrContainerCorrupt}, args...)...)
}

// ElemBase returns the global element-id base table of c: eb[i] is the sum
// of element counts of sets 0..i-1, so element e of set s has global id
// eb[s]+e and eb[len(Sets)] is the total element count. Bitmap containers
// are defined over this id space; the table used to decode a container
// must be the one it was encoded against (appending sets keeps existing
// entries stable, so the table extends without invalidating containers).
func ElemBase(c *Collection) []int32 {
	eb := make([]int32, len(c.Sets)+1)
	for i := range c.Sets {
		eb[i+1] = eb[i] + int32(len(c.Sets[i].Elements))
	}
	return eb
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readUvarint is binary.Uvarint restricted to the encoder's shortest form:
// an encoding longer than uvarintLen(v) — one that ends in a zero byte,
// like 0x80 0x00 for 0 — fails with sz 0, so that every container a
// decoder accepts re-encodes to the same bytes.
func readUvarint(b []byte) (v uint64, sz int) {
	v, sz = binary.Uvarint(b)
	if sz > 1 && b[sz-1] == 0 {
		return 0, 0
	}
	return v, sz
}

// ContainerEncoder encodes posting lists into container blobs, reusing
// internal scratch across calls. The zero value is ready to use.
type ContainerEncoder struct {
	blocks []byte
	skip   []uint64 // lastSet<<32 | endOff
}

// Append encodes list — sorted strictly ascending by (Set, Elem) — as a
// container blob appended to dst. The encoding is chosen adaptively and
// deterministically: array for tiny lists, then whichever of packed or
// bitmap is smaller (bitmap requires eb; pass nil to force packed). An
// empty list appends nothing: the empty blob is the empty list.
func (e *ContainerEncoder) Append(dst []byte, list []Posting, eb []int32) []byte {
	n := len(list)
	if n == 0 {
		return dst
	}
	if n <= ArrayMaxPostings {
		dst = append(dst, ContainerArray)
		dst = binary.AppendUvarint(dst, uint64(n))
		prev := int32(0)
		for _, p := range list {
			dst = binary.AppendUvarint(dst, uint64(p.Set-prev))
			dst = binary.AppendUvarint(dst, uint64(p.Elem))
			prev = p.Set
		}
		return dst
	}

	// Packed candidate: encode blocks into scratch so the skip table —
	// which precedes them on the wire — can be emitted with final offsets.
	e.blocks = e.blocks[:0]
	e.skip = e.skip[:0]
	for b := 0; b < n; b += PackedBlockSize {
		end := min(b+PackedBlockSize, n)
		prev := int32(0)
		for k, p := range list[b:end] {
			if k == 0 {
				e.blocks = binary.AppendUvarint(e.blocks, uint64(p.Set))
			} else {
				e.blocks = binary.AppendUvarint(e.blocks, uint64(p.Set-prev))
			}
			e.blocks = binary.AppendUvarint(e.blocks, uint64(p.Elem))
			prev = p.Set
		}
		e.skip = append(e.skip, uint64(uint32(list[end-1].Set))<<32|uint64(uint32(len(e.blocks))))
	}
	nBlocks := len(e.skip)
	packedSize := 1 + uvarintLen(uint64(n)) + uvarintLen(uint64(nBlocks)) +
		nBlocks*skipEntrySize + len(e.blocks)

	if eb != nil {
		first := int(eb[list[0].Set]) + int(list[0].Elem)
		last := int(eb[list[n-1].Set]) + int(list[n-1].Elem)
		fw, lw := first>>6, last>>6
		nWords := lw - fw + 1
		bmSize := 1 + uvarintLen(uint64(n)) + uvarintLen(uint64(fw)) +
			uvarintLen(uint64(nWords)) + nWords*8
		if bmSize < packedSize {
			dst = append(dst, ContainerBitmap)
			dst = binary.AppendUvarint(dst, uint64(n))
			dst = binary.AppendUvarint(dst, uint64(fw))
			dst = binary.AppendUvarint(dst, uint64(nWords))
			base := len(dst)
			for i := 0; i < nWords; i++ {
				dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
			}
			for _, p := range list {
				if int(p.Elem) >= int(eb[p.Set+1]-eb[p.Set]) {
					panic("dataset: posting element out of range for bitmap container")
				}
				id := int(eb[p.Set]) + int(p.Elem)
				off := base + (id>>6-fw)*8
				word := binary.LittleEndian.Uint64(dst[off:])
				binary.LittleEndian.PutUint64(dst[off:], word|1<<(uint(id)&63))
			}
			return dst
		}
	}

	dst = append(dst, ContainerPacked)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(nBlocks))
	for _, s := range e.skip {
		var ent [skipEntrySize]byte
		binary.LittleEndian.PutUint32(ent[0:4], uint32(s>>32))
		binary.LittleEndian.PutUint32(ent[4:8], uint32(s))
		dst = append(dst, ent[:]...)
	}
	return append(dst, e.blocks...)
}

// ContainerLen returns the posting count declared by a container blob, or
// false if the header is malformed. The empty blob has length 0.
func ContainerLen(blob []byte) (int, bool) {
	if len(blob) == 0 {
		return 0, true
	}
	if blob[0] > ContainerBitmap {
		return 0, false
	}
	v, sz := readUvarint(blob[1:])
	// Every encoding spends ≥ 1 bit per posting (a bitmap word holds at
	// most 64 postings in 8 bytes), so a declared count the blob cannot
	// possibly back is rejected before anyone allocates on its behalf.
	if sz <= 0 || v == 0 || v > math.MaxInt32 || int(v) > (len(blob)-1)*8 {
		return 0, false
	}
	return int(v), true
}

// PostingList is a read-only view over one encoded container blob plus the
// element-base table it was encoded against. The zero value is the empty
// list.
type PostingList struct {
	blob []byte
	eb   []int32
}

// NewPostingList wraps an encoded container blob. eb must be (a stable
// extension of) the ElemBase table the blob was encoded against.
func NewPostingList(blob []byte, eb []int32) PostingList {
	return PostingList{blob: blob, eb: eb}
}

// Kind returns the container kind byte (ContainerArray for the empty
// blob).
func (pl PostingList) Kind() byte {
	if len(pl.blob) == 0 {
		return ContainerArray
	}
	return pl.blob[0]
}

// Len returns the declared posting count, or 0 for a malformed header.
func (pl PostingList) Len() int {
	n, _ := ContainerLen(pl.blob)
	return n
}

// Iter returns an iterator positioned before the first posting.
func (pl PostingList) Iter() PostingIter {
	var it PostingIter
	it.init(pl)
	return it
}

// Materialize appends every posting to dst. The full container is
// validated (bounds, ordering, canonical block/skip/bitmap structure), so
// a successful materialization is exact; on error the original dst is
// returned unchanged alongside the error.
func (pl PostingList) Materialize(dst []Posting) ([]Posting, error) {
	if len(pl.blob) == 0 {
		return dst, nil
	}
	start := len(dst)
	it := pl.Iter()
	if it.err != nil {
		return dst, it.err
	}
	if cap(dst)-len(dst) < it.n {
		grown := make([]Posting, len(dst), len(dst)+it.n)
		copy(grown, dst)
		dst = grown
	}
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		dst = append(dst, p)
	}
	if err := it.Err(); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// PostingIter streams a container's postings in (Set, Elem) order without
// materializing the list. It validates as it goes; Next returning false
// means either exhaustion or an error — check Err.
type PostingIter struct {
	eb  []int32
	err error

	kind byte
	n    int // declared postings
	i    int // postings emitted

	// array + packed
	data     []byte // varint area (array payload, or packed blocks area)
	off      int
	skip     []byte // packed skip table
	nBlocks  int
	blockIdx int
	inBlock  int
	prevSet  int32
	prevElem int32

	// bitmap
	words    []byte
	word     uint64
	wordIdx  int
	firstBit int // global element id of words[0] bit 0
	set      int32
}

func (it *PostingIter) fail(format string, args ...any) {
	if it.err == nil {
		it.err = badContainer(format, args...)
	}
}

func (it *PostingIter) init(pl PostingList) {
	it.eb = pl.eb
	blob := pl.blob
	if len(blob) == 0 {
		return
	}
	n, ok := ContainerLen(blob)
	if !ok {
		it.fail("bad container header")
		return
	}
	it.kind = blob[0]
	it.n = n
	_, sz := readUvarint(blob[1:])
	rest := blob[1+sz:]
	switch it.kind {
	case ContainerArray:
		if n > ArrayMaxPostings {
			it.fail("array container with %d postings", n)
			return
		}
		if len(rest) < 2*n { // each posting costs ≥ 2 bytes
			it.fail("array payload too short for %d postings", n)
			return
		}
		it.data = rest
	case ContainerPacked:
		nb, sz := readUvarint(rest)
		if sz <= 0 || nb != uint64((n+PackedBlockSize-1)/PackedBlockSize) {
			it.fail("packed container block count")
			return
		}
		rest = rest[sz:]
		skipLen := int(nb) * skipEntrySize
		if len(rest) < skipLen || len(rest)-skipLen < 2*n {
			it.fail("packed payload too short for %d postings", n)
			return
		}
		it.nBlocks = int(nb)
		it.skip = rest[:skipLen]
		it.data = rest[skipLen:]
	case ContainerBitmap:
		fw, sz := readUvarint(rest)
		if sz <= 0 || fw > math.MaxInt32>>6 {
			it.fail("bitmap first word")
			return
		}
		rest = rest[sz:]
		nw, sz := readUvarint(rest)
		if sz <= 0 || nw == 0 || nw > uint64(len(rest)) {
			it.fail("bitmap word count")
			return
		}
		rest = rest[sz:]
		if len(rest) != int(nw)*8 || uint64(n) > nw*64 {
			it.fail("bitmap payload is %d bytes for %d postings", len(rest), n)
			return
		}
		if it.eb == nil {
			it.fail("bitmap container without element base")
			return
		}
		// Canonical form: the boundary words are nonzero (else the
		// encoder would have shrunk the range).
		if binary.LittleEndian.Uint64(rest[:8]) == 0 ||
			binary.LittleEndian.Uint64(rest[len(rest)-8:]) == 0 {
			it.fail("bitmap with empty boundary word")
			return
		}
		it.words = rest
		it.firstBit = int(fw) << 6
		it.word = binary.LittleEndian.Uint64(rest[:8])
	default:
		it.fail("unknown container kind 0x%02x", it.kind)
	}
}

// Err returns the first decode error encountered, or nil.
func (it *PostingIter) Err() error { return it.err }

// finish runs the end-of-container canonicity checks once.
func (it *PostingIter) finish() {
	switch it.kind {
	case ContainerArray, ContainerPacked:
		if it.data != nil && it.off != len(it.data) {
			it.fail("%d trailing container bytes", len(it.data)-it.off)
		}
		it.data = nil
	case ContainerBitmap:
		if it.words == nil {
			return
		}
		trailing := it.word != 0
		for w := it.wordIdx + 1; !trailing && w*8 < len(it.words); w++ {
			trailing = binary.LittleEndian.Uint64(it.words[w*8:]) != 0
		}
		if trailing {
			it.fail("bitmap popcount exceeds declared %d", it.n)
		}
		it.words = nil
	}
}

// Next returns the next posting, or false when exhausted or on error.
func (it *PostingIter) Next() (Posting, bool) {
	if it.err == nil && it.i >= it.n {
		it.finish()
	}
	if it.err != nil || it.i >= it.n {
		return Posting{}, false
	}
	if it.kind == ContainerBitmap {
		return it.nextBitmap()
	}
	return it.nextVarint()
}

func (it *PostingIter) uvarint() uint64 {
	v, sz := readUvarint(it.data[it.off:])
	if sz <= 0 {
		it.fail("bad uvarint at offset %d", it.off)
		return 0
	}
	it.off += sz
	return v
}

func (it *PostingIter) nextVarint() (Posting, bool) {
	absolute := it.i == 0 || (it.kind == ContainerPacked && it.inBlock == 0)
	dv := it.uvarint()
	ev := it.uvarint()
	if it.err != nil {
		return Posting{}, false
	}
	if ev > math.MaxInt32 {
		it.fail("element %d out of range", ev)
		return Posting{}, false
	}
	elem := int32(ev)
	var set int32
	if absolute {
		if dv > math.MaxInt32 {
			it.fail("set %d out of range", dv)
			return Posting{}, false
		}
		set = int32(dv)
		if it.i > 0 && (set < it.prevSet || (set == it.prevSet && elem <= it.prevElem)) {
			it.fail("postings out of order at %d", it.i)
			return Posting{}, false
		}
	} else {
		if int64(it.prevSet)+int64(dv) > math.MaxInt32 {
			it.fail("set delta %d out of range", dv)
			return Posting{}, false
		}
		set = it.prevSet + int32(dv)
		if dv == 0 && elem <= it.prevElem {
			it.fail("postings out of order at %d", it.i)
			return Posting{}, false
		}
	}
	if it.eb != nil {
		if int(set) >= len(it.eb)-1 {
			it.fail("posting set %d out of range", set)
			return Posting{}, false
		}
		if elem >= it.eb[set+1]-it.eb[set] {
			it.fail("posting element %d out of range for set %d", elem, set)
			return Posting{}, false
		}
	}
	it.prevSet, it.prevElem = set, elem
	it.i++
	if it.kind == ContainerPacked {
		it.inBlock++
		blockLen := PackedBlockSize
		if it.blockIdx == it.nBlocks-1 {
			blockLen = it.n - it.blockIdx*PackedBlockSize
		}
		if it.inBlock == blockLen {
			// Canonical form: the skip entry must match the block exactly.
			ent := it.skip[it.blockIdx*skipEntrySize:]
			if int32(binary.LittleEndian.Uint32(ent[0:4])) != set {
				it.fail("skip entry %d lastSet mismatch", it.blockIdx)
				return Posting{}, false
			}
			if int(binary.LittleEndian.Uint32(ent[4:8])) != it.off {
				it.fail("skip entry %d offset mismatch", it.blockIdx)
				return Posting{}, false
			}
			it.blockIdx++
			it.inBlock = 0
		}
	}
	return Posting{Set: set, Elem: elem}, true
}

func (it *PostingIter) nextBitmap() (Posting, bool) {
	for {
		if it.word != 0 {
			bit := bits.TrailingZeros64(it.word)
			it.word &= it.word - 1
			id := it.firstBit + it.wordIdx<<6 + bit
			for int(it.set) < len(it.eb)-1 && int(it.eb[it.set+1]) <= id {
				it.set++
			}
			if int(it.set) >= len(it.eb)-1 {
				it.fail("bitmap bit %d beyond element space", id)
				return Posting{}, false
			}
			it.i++
			return Posting{Set: it.set, Elem: int32(id - int(it.eb[it.set]))}, true
		}
		it.wordIdx++
		if it.wordIdx*8 >= len(it.words) {
			if it.i != it.n {
				it.fail("bitmap popcount %d, declared %d", it.i, it.n)
			}
			it.i = it.n
			it.words = nil
			return Posting{}, false
		}
		it.word = binary.LittleEndian.Uint64(it.words[it.wordIdx*8:])
	}
}

// SetRange appends the postings of one set to dst, seeking via the skip
// table (packed) or word range (bitmap) rather than scanning the whole
// container. On decode error the original dst is returned with the error.
func (pl PostingList) SetRange(set int32, dst []Posting) ([]Posting, error) {
	start := len(dst)
	if len(pl.blob) == 0 || set < 0 {
		return dst, nil
	}
	switch pl.blob[0] {
	case ContainerArray:
		it := pl.Iter()
		for {
			p, ok := it.Next()
			if !ok || p.Set > set {
				break
			}
			if p.Set == set {
				dst = append(dst, p)
			}
		}
		if err := it.Err(); err != nil {
			return dst[:start], err
		}
		return dst, nil
	case ContainerPacked:
		it := pl.Iter()
		if it.err != nil {
			return dst, it.err
		}
		// First block whose lastSet >= set.
		lo := sort.Search(it.nBlocks, func(b int) bool {
			return int32(binary.LittleEndian.Uint32(it.skip[b*skipEntrySize:])) >= set
		})
		if lo == it.nBlocks {
			return dst, nil
		}
		var scratch [PackedBlockSize]Posting
		for b := lo; b < it.nBlocks; b++ {
			blk, err := pl.decodeBlock(&it, b, &scratch)
			if err != nil {
				return dst[:start], err
			}
			if len(blk) == 0 || blk[0].Set > set {
				break
			}
			i := sort.Search(len(blk), func(i int) bool { return blk[i].Set >= set })
			for ; i < len(blk) && blk[i].Set == set; i++ {
				dst = append(dst, blk[i])
			}
			if blk[len(blk)-1].Set > set {
				break
			}
		}
		return dst, nil
	case ContainerBitmap:
		it := pl.Iter()
		if it.err != nil {
			return dst, it.err
		}
		if int(set)+1 >= len(pl.eb) {
			return dst, nil
		}
		return appendBitmapRange(dst, it.words, it.firstBit, set,
			int(pl.eb[set]), int(pl.eb[set+1])), nil
	default:
		return dst, badContainer("unknown container kind 0x%02x", pl.blob[0])
	}
}

// appendBitmapRange appends postings of one set — global element ids in
// [base, hi) — from a bitmap's word area.
func appendBitmapRange(dst []Posting, words []byte, firstBit int, set int32, base, hi int) []Posting {
	lo := base
	lastBit := firstBit + len(words)*8
	if lo < firstBit {
		lo = firstBit
	}
	if hi > lastBit {
		hi = lastBit
	}
	if lo >= hi {
		return dst
	}
	for w := lo >> 6; w<<6 < hi; w++ {
		idx := w - firstBit>>6
		word := binary.LittleEndian.Uint64(words[idx*8:])
		if w<<6 < lo {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if (w+1)<<6 > hi {
			word &= ^uint64(0) >> ((64 - uint(hi)&63) & 63)
		}
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &= word - 1
			dst = append(dst, Posting{Set: set, Elem: int32(w<<6 + bit - base)})
		}
	}
	return dst
}

// decodeBlock decodes packed block b into scratch. it must be a freshly
// initialized iterator over the same container (used for its parsed
// layout). Bounds are checked; intra-block ordering is not — full
// validation is Materialize's job, and callers only binary-search the
// result.
func (pl PostingList) decodeBlock(it *PostingIter, b int, scratch *[PackedBlockSize]Posting) ([]Posting, error) {
	start := 0
	if b > 0 {
		start = int(binary.LittleEndian.Uint32(it.skip[(b-1)*skipEntrySize+4:]))
	}
	end := int(binary.LittleEndian.Uint32(it.skip[b*skipEntrySize+4:]))
	if start > end || end > len(it.data) {
		return nil, badContainer("skip table offsets out of range")
	}
	data := it.data[start:end]
	blockLen := PackedBlockSize
	if b == it.nBlocks-1 {
		blockLen = it.n - b*PackedBlockSize
	}
	off := 0
	prev := int32(0)
	out := scratch[:0]
	for k := 0; k < blockLen; k++ {
		sv, sz := readUvarint(data[off:])
		if sz <= 0 {
			return nil, badContainer("bad uvarint in block %d", b)
		}
		off += sz
		ev, sz := readUvarint(data[off:])
		if sz <= 0 {
			return nil, badContainer("bad uvarint in block %d", b)
		}
		off += sz
		if ev > math.MaxInt32 {
			return nil, badContainer("element out of range in block %d", b)
		}
		var set int32
		if k == 0 {
			if sv > math.MaxInt32 {
				return nil, badContainer("set out of range in block %d", b)
			}
			set = int32(sv)
		} else {
			if int64(prev)+int64(sv) > math.MaxInt32 {
				return nil, badContainer("set delta out of range in block %d", b)
			}
			set = prev + int32(sv)
		}
		out = append(out, Posting{Set: set, Elem: int32(ev)})
		prev = set
	}
	if off != len(data) {
		return nil, badContainer("%d trailing bytes in block %d", len(data)-off, b)
	}
	return out, nil
}

// ContainerStore is an immutable token-id-indexed array of container
// blobs: a uint32 LE offset table of numTokens+1 entries over one
// concatenated blob area. It is the on-disk postings section of a v2
// snapshot viewed in place — both slices may alias a memory-mapped file —
// so resolving a token's blob is O(1) and allocation-free.
type ContainerStore struct {
	offs []byte // (n+1) × uint32 LE
	data []byte
	n    int
}

// NewContainerStore validates the offset table (monotone, bounded by the
// blob area) and wraps the two byte areas. Individual blob contents are
// validated lazily on first decode.
func NewContainerStore(numTokens int, offs, data []byte) (*ContainerStore, error) {
	if numTokens < 0 || len(offs) != (numTokens+1)*4 {
		return nil, badContainer("offset table is %d bytes for %d tokens", len(offs), numTokens)
	}
	if binary.LittleEndian.Uint32(offs) != 0 {
		return nil, badContainer("offset table does not start at 0")
	}
	prev := uint32(0)
	for i := 1; i <= numTokens; i++ {
		o := binary.LittleEndian.Uint32(offs[i*4:])
		if o < prev {
			return nil, badContainer("offset table not monotone at %d", i)
		}
		prev = o
	}
	if int(prev) != len(data) {
		return nil, badContainer("offset table ends at %d, blob area is %d bytes", prev, len(data))
	}
	return &ContainerStore{offs: offs, data: data, n: numTokens}, nil
}

// NumTokens returns the number of token slots; none for a nil store.
func (cs *ContainerStore) NumTokens() int {
	if cs == nil {
		return 0
	}
	return cs.n
}

// Blob returns token t's container blob (empty for an empty list or an
// out-of-range token). The returned slice aliases the store.
func (cs *ContainerStore) Blob(t int) []byte {
	if cs == nil || t < 0 || t >= cs.n {
		return nil
	}
	lo := binary.LittleEndian.Uint32(cs.offs[t*4:])
	hi := binary.LittleEndian.Uint32(cs.offs[(t+1)*4:])
	return cs.data[lo:hi]
}

// EncodedBytes returns the store's total footprint: blob area plus offset
// table.
func (cs *ContainerStore) EncodedBytes() int64 {
	if cs == nil {
		return 0
	}
	return int64(len(cs.data)) + int64(len(cs.offs))
}

// Clone returns a heap copy of the store, detaching it from any memory-
// mapped backing.
func (cs *ContainerStore) Clone() *ContainerStore {
	return &ContainerStore{
		offs: append([]byte(nil), cs.offs...),
		data: append([]byte(nil), cs.data...),
		n:    cs.n,
	}
}

// ContainerStoreBuilder accumulates container blobs in token-id order.
type ContainerStoreBuilder struct {
	enc  ContainerEncoder
	offs []byte
	data []byte
	n    int
}

// NewContainerStoreBuilder returns a builder sized for numTokens slots.
func NewContainerStoreBuilder(numTokens int) *ContainerStoreBuilder {
	return &ContainerStoreBuilder{offs: make([]byte, 4, (numTokens+1)*4)}
}

// Add encodes list as the next token's container.
func (b *ContainerStoreBuilder) Add(list []Posting, eb []int32) {
	b.data = b.enc.Append(b.data, list, eb)
	b.closeSlot()
}

// AddBlob copies an already-encoded container verbatim as the next
// token's container.
func (b *ContainerStoreBuilder) AddBlob(blob []byte) {
	b.data = append(b.data, blob...)
	b.closeSlot()
}

func (b *ContainerStoreBuilder) closeSlot() {
	if uint64(len(b.data)) > math.MaxUint32 {
		panic("dataset: container store exceeds 4 GiB")
	}
	b.offs = binary.LittleEndian.AppendUint32(b.offs, uint32(len(b.data)))
	b.n++
}

// Finish returns the completed store.
func (b *ContainerStoreBuilder) Finish() *ContainerStore {
	return &ContainerStore{offs: b.offs, data: b.data, n: b.n}
}
