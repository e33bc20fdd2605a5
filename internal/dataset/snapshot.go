package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unicode/utf8"

	"silkmoth/internal/binenc"
	"silkmoth/internal/tokens"
)

// Posting locates one element occurrence of a token: element Elem of set
// Set in a collection. It is the canonical posting representation —
// index.Inverted aliases it — so a snapshot can carry inverted-index
// posting lists without this package importing the index.
type Posting struct {
	Set  int32
	Elem int32
}

// PostingProvider is the save-side source of posting lists. The index
// implements it so SaveSnapshot can copy still-exact encoded containers
// verbatim — no decode, no re-encode — and fall back to materialized
// postings only where the encoded form is stale or absent.
type PostingProvider interface {
	// NumTokens returns the number of token slots.
	NumTokens() int
	// EncodedContainer returns token t's posting list as an encoded
	// container blob when that blob is the whole list (no postings
	// appended since it was encoded, nor a list held only as a slice), or
	// false.
	EncodedContainer(t int) ([]byte, bool)
	// AppendPostings appends token t's postings to dst in (Set, Elem)
	// order.
	AppendPostings(t int, dst []Posting) []Posting
}

// SnapshotData is the full persisted image of an engine's logical state —
// the one on-disk form, written under Config.DataDir and by SaveCollection
// alike: the tokenized collection (dead slots as empty placeholders,
// preserving the runtime id space that WAL records reference), the
// tombstone bitmap, and optionally the inverted-index posting lists so a
// load rebuilds nothing. The index image travels one way per direction:
// a writer sets Source, a loader gets Containers.
type SnapshotData struct {
	Coll *Collection
	// Dead marks tombstoned slots; nil (or all-false) means every slot is
	// live. Saved snapshots are compacted images: dead slots persist with
	// no elements, name, or postings, only their index reservation.
	Dead []bool
	// Source, when non-nil, supplies the postings SaveSnapshot writes —
	// typically the live inverted index. A nil Source saves no index
	// image (the loader rebuilds it from the tokenized sets).
	Source PostingProvider
	// Containers is the postings section viewed in place: token-indexed
	// encoded container blobs, possibly aliasing a memory-mapped file.
	// Set by LoadSnapshot(Bytes) when the snapshot carries postings;
	// SaveSnapshot does not read it.
	Containers *ContainerStore
	// Scoring is the configuration the image was written under, nil when
	// it records none (a writer that passed none, or an image from before
	// the field).
	Scoring *Scoring
}

// Scoring is what an engine's answers over the same sets depend on beyond
// the tokenization: the relatedness metric and the element similarity, as
// codes the engine assigns, and α. It travels as trailing fields of the
// meta section, which version-2 readers that predate them skip.
type Scoring struct {
	Metric, Similarity int
	Alpha              float64
}

// DecodePostings materializes every posting list from Containers (nil
// when the snapshot carries none). Each container is fully validated; a
// decode error means the snapshot is corrupt.
func (sd *SnapshotData) DecodePostings() ([][]Posting, error) {
	if sd.Containers == nil {
		return nil, nil
	}
	eb := sd.Coll.Dir.Base()
	lists := make([][]Posting, sd.Containers.NumTokens())
	for t := range lists {
		blob := sd.Containers.Blob(t)
		if len(blob) == 0 {
			continue
		}
		l, err := NewPostingList(blob, eb).Materialize(nil)
		if err != nil {
			return nil, corrupt("postings for token %d: %v", t, err)
		}
		lists[t] = l
	}
	return lists, nil
}

// UnsupportedVersionError reports a persisted artifact written by a newer
// format version than this build can read.
type UnsupportedVersionError struct {
	Format    string // "snapshot"
	Version   int
	Supported int
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("dataset: %s format version %d is newer than supported version %d",
		e.Format, e.Version, e.Supported)
}

// Snapshot wire format: an 8-byte magic, a format-version byte, then a
// fixed order of sections — meta, dictionary, sets, postings (only when
// meta says so), end. Each section is framed
//
//	[tag byte][uint32 LE payload length][payload][uint32 LE CRC32(payload)]
//
// so every byte of content is covered by a checksum and a reader can
// verify each section before trusting its lengths structurally.
//
// The meta section holds uvarints — the token mode, q, the set and word
// counts — and a postings flag byte, then, when the writer recorded its
// Scoring, the metric, the similarity and α's float64 bits as uvarints.
// A reader takes no notice of meta bytes past what it knows, so the
// Scoring fields needed no version of their own.
//
// The postings section holds adaptive container blobs behind a fixed-width
// offset table:
//
//	[uvarint numTokens]
//	[(numTokens+1) × uint32 LE blob offsets]
//	[concatenated container blobs — see plist.go]
//
// which a loader can hand to the index as in-place byte views (the file
// may stay memory-mapped): resolving one token's blob is O(1), and a blob
// is decoded only on first probe.
//
// Version 2 is the only version this build reads or writes. Two older
// forms are retired (see retiredFormat): version 1, which stored postings
// as one delta-varint stream per token, and the separate collection file
// SaveCollection used to write.
const (
	snapshotMagic   = "SMOTHSNP"
	snapshotVersion = 2

	secMeta     = 0x01
	secDict     = 0x02
	secSets     = 0x03
	secPostings = 0x04
	secEnd      = 0xFF

	// maxSectionSize caps the declared length a reader accepts: a flipped
	// bit in a length field must bound at a read attempt, not a
	// multi-gigabyte allocation (payloads are validated against the bytes
	// actually present).
	maxSectionSize = 1 << 30
)

// ErrSnapshotCorrupt is the sentinel wrapped by snapshot decode failures.
var ErrSnapshotCorrupt = errors.New("dataset: corrupt snapshot")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCorrupt}, args...)...)
}

// ErrRetiredFormat is the sentinel wrapped when a file is a well-formed
// artifact of a format this build no longer reads. It is deliberately not
// ErrSnapshotCorrupt: the bytes are intact, the reader is gone.
var ErrRetiredFormat = errors.New("dataset: retired format")

func retiredFormat(what string) error {
	return fmt.Errorf("%w: %s is no longer readable; re-save with the previous build (opening the file there with a data dir writes a current snapshot)", ErrRetiredFormat, what)
}

// SaveSnapshot writes snap to w in the versioned binary snapshot format.
// The image is compacted on the way out: dead slots are written as empty
// placeholders (keeping the id space intact for WAL replay), postings are
// filtered to live sets, and the token table is pruned — and renumbered
// monotonically, preserving sorted-token invariants — to what live sets
// reference. Container blobs are reused verbatim from the provider
// whenever they are still exact, so re-saving an unmutated compressed
// index copies bytes instead of re-encoding.
func SaveSnapshot(w io.Writer, snap *SnapshotData) error {
	c := snap.Coll
	alive := func(i int) bool { return i >= len(snap.Dead) || !snap.Dead[i] }

	// Prune and monotonically renumber the token table (ascending old id →
	// ascending new id; the identity when every token is in use).
	used, _ := c.Used(alive)
	remap := make([]int32, len(used))
	var words []tokens.ID
	for old, u := range used {
		if u {
			remap[old] = int32(len(words))
			words = append(words, tokens.ID(old))
		}
	}

	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{snapshotVersion}); err != nil {
		return err
	}

	hasPostings := snap.Source != nil
	var meta binenc.Writer
	meta.Grow(7*binary.MaxVarintLen64 + 1)
	meta.Uint(int(c.Mode))
	meta.Uint(c.Q)
	meta.Uint(len(c.Sets))
	meta.Uint(len(words))
	if hasPostings {
		meta.Byte(1)
	} else {
		meta.Byte(0)
	}
	if sc := snap.Scoring; sc != nil {
		meta.Uint(sc.Metric)
		meta.Uint(sc.Similarity)
		meta.Uvarint(math.Float64bits(sc.Alpha))
	}
	if err := writeSection(w, secMeta, meta.Bytes()); err != nil {
		return err
	}

	var dict binenc.Writer
	size := 0
	for _, word := range words {
		n := len(c.Dict.Bytes(word))
		size += uvarintLen(uint64(n)) + n
	}
	dict.Grow(size)
	for _, word := range words {
		dict.StringBytes(c.Dict.Bytes(word))
	}
	if err := writeSection(w, secDict, dict.Bytes()); err != nil {
		return err
	}

	var sets binenc.Writer
	sets.Grow(setsBound(c, alive, len(words)))
	for i := range c.Sets {
		if !alive(i) {
			sets.Byte(0)
			continue
		}
		sets.Byte(1)
		s, ents := &c.Sets[i], c.Dir.Set(int32(i))
		sets.String(s.Name)
		sets.Uint(len(s.Elements))
		for j := range s.Elements {
			e := &s.Elements[j]
			sets.String(e.Raw)
			sets.Uint(len(e.Tokens))
			prev := int32(0)
			for _, id := range e.Tokens {
				nid := remap[id]
				sets.Uint(int(nid - prev)) // sorted strictly ascending
				prev = nid
			}
			chunks := s.Chunks(j)
			sets.Uint(len(chunks))
			for _, id := range chunks {
				sets.Uint(int(remap[id]))
			}
			sets.Uint(int(ents[j].Size))
		}
	}
	if err := writeSection(w, secSets, sets.Bytes()); err != nil {
		return err
	}

	if hasPostings {
		if err := writeSection(w, secPostings, encodePostingsSection(snap, used, len(words), alive)...); err != nil {
			return err
		}
	}

	return writeSection(w, secEnd, nil)
}

// setsBound bounds the size of the sets section of c from above, from the
// set and element lengths alone: every count and length is written as a
// uvarint of its own size, and every token or chunk id (a delta, or an id
// of the pruned table of numTok ids) in at most as many bytes as numTok.
func setsBound(c *Collection, alive func(int) bool, numTok int) int {
	idLen := uvarintLen(uint64(numTok))
	n := 0
	for i := range c.Sets {
		n++ // the liveness flag
		if !alive(i) {
			continue
		}
		s := &c.Sets[i]
		n += uvarintLen(uint64(len(s.Name))) + len(s.Name) + uvarintLen(uint64(len(s.Elements)))
		for j := range s.Elements {
			e := &s.Elements[j]
			nc := len(s.Chunks(j))
			n += uvarintLen(uint64(len(e.Raw))) + len(e.Raw) +
				uvarintLen(uint64(len(e.Tokens))) + len(e.Tokens)*idLen +
				uvarintLen(uint64(nc)) + nc*idLen + binary.MaxVarintLen32
		}
	}
	return n
}

// encodePostingsSection builds the postings payload from snap.Source:
// container blobs in remapped token order behind an offset table, returned
// as the parts writeSection writes back to back (the token count, the
// table, the blobs). Blobs carry no token ids, so a still-exact container
// can be copied verbatim even though the token table is renumbered; the
// blob area is sized up front for the containers that are.
func encodePostingsSection(snap *SnapshotData, used []bool, numTok int, alive func(int) bool) [][]byte {
	c := snap.Coll
	src := snap.Source

	// Verbatim blob reuse is sound only when the save-side element-id
	// space equals the live one a provider's containers were encoded
	// against: every dead slot must already hold zero elements
	// (tombstoned-but-uncompacted sets still carry elements the save
	// filters out, shifting the id space).
	verbatimOK := true
	for i := range c.Sets {
		if !alive(i) && len(c.Sets[i].Elements) > 0 {
			verbatimOK = false
			break
		}
	}
	saveEB := make([]int32, len(c.Sets)+1)
	for i := range c.Sets {
		n := 0
		if alive(i) {
			n = len(c.Sets[i].Elements)
		}
		saveEB[i+1] = saveEB[i] + int32(n)
	}

	b := NewContainerStoreBuilder(numTok)
	if verbatimOK {
		size := 0
		for old, u := range used {
			if blob, ok := src.EncodedContainer(old); u && ok {
				size += len(blob)
			}
		}
		b.data = make([]byte, 0, size)
	}
	var scratch []Posting
	for old, u := range used {
		if !u {
			continue
		}
		if verbatimOK {
			if blob, ok := src.EncodedContainer(old); ok {
				b.AddBlob(blob)
				continue
			}
		}
		scratch = src.AppendPostings(old, scratch[:0])
		k := 0
		for _, p := range scratch {
			if alive(int(p.Set)) {
				scratch[k] = p
				k++
			}
		}
		b.Add(scratch[:k], saveEB)
	}
	cs := b.Finish()
	return [][]byte{binary.AppendUvarint(nil, uint64(numTok)), cs.offs, cs.data}
}

// writeSection writes one section frame whose payload is parts back to
// back, checksummed as one, without joining them.
func writeSection(w io.Writer, tag byte, parts ...[]byte) error {
	var hdr [5]byte
	hdr[0] = tag
	size, sum := 0, uint32(0)
	for _, p := range parts {
		size += len(p)
		sum = crc32.Update(sum, crc32.IEEETable, p)
	}
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(size))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	_, err := w.Write(tail[:])
	return err
}

// byteSections walks the section frames of an in-memory snapshot image,
// verifying each checksum. Payloads are subslices of the image — nothing
// is copied — so a loader over a memory-mapped file stays zero-copy.
type byteSections struct {
	rest []byte
}

func (r *byteSections) next() (tag byte, payload []byte, err error) {
	if len(r.rest) < 5 {
		return 0, nil, corrupt("truncated section header")
	}
	tag = r.rest[0]
	n := binary.LittleEndian.Uint32(r.rest[1:5])
	if n > maxSectionSize {
		return 0, nil, corrupt("section length %d exceeds cap", n)
	}
	if uint64(len(r.rest)) < 5+uint64(n)+4 {
		return 0, nil, corrupt("truncated section payload (%d of %d bytes)", len(r.rest)-5, n)
	}
	payload = r.rest[5 : 5+n]
	sum := binary.LittleEndian.Uint32(r.rest[5+n:])
	if sum != crc32.ChecksumIEEE(payload) {
		return 0, nil, corrupt("section 0x%02x checksum mismatch", tag)
	}
	r.rest = r.rest[9+n:]
	return tag, payload, nil
}

func (r *byteSections) expect(want byte) ([]byte, error) {
	tag, payload, err := r.next()
	if err != nil {
		return nil, err
	}
	if tag != want {
		return nil, corrupt("expected section 0x%02x, found 0x%02x", want, tag)
	}
	return payload, nil
}

// LoadSnapshot reads a snapshot written by SaveSnapshot from a stream. It
// buffers the stream and delegates to LoadSnapshotBytes; callers holding
// the image in memory (or mapped) should call LoadSnapshotBytes directly
// to stay zero-copy.
func LoadSnapshot(r io.Reader) (*SnapshotData, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		// The reader failed, not the image: keep the cause, and do not
		// call a closed file or a broken pipe corruption.
		return nil, fmt.Errorf("dataset: reading snapshot: %w", err)
	}
	return LoadSnapshotBytes(data)
}

// LoadSnapshotBytes parses a snapshot image in place. The returned
// collection owns a fresh dictionary rebuilt from the persisted token
// table; element keys are re-interned (a dictionary operation, not a
// tokenization), and no element string is ever re-tokenized. The returned
// Containers view aliases data — the caller keeps the backing memory
// (heap buffer or mapping) alive for the life of the snapshot's users.
// Container blob contents are CRC-verified here and validated
// structurally on first decode.
func LoadSnapshotBytes(data []byte) (*SnapshotData, error) {
	if len(data) < len(snapshotMagic)+1 {
		return nil, corrupt("truncated header")
	}
	switch magic := string(data[:len(snapshotMagic)]); magic {
	case snapshotMagic:
	case "SMOTHCOL":
		return nil, retiredFormat("the SMOTHCOL collection format")
	default:
		return nil, corrupt("bad magic %q", magic)
	}
	switch version := int(data[len(snapshotMagic)]); {
	case version == snapshotVersion:
	case version > snapshotVersion:
		return nil, &UnsupportedVersionError{Format: "snapshot", Version: version, Supported: snapshotVersion}
	case version == 1:
		return nil, retiredFormat("snapshot format version 1")
	default:
		return nil, corrupt("unknown snapshot version %d", version)
	}
	r := &byteSections{rest: data[len(snapshotMagic)+1:]}

	metaPayload, err := r.expect(secMeta)
	if err != nil {
		return nil, err
	}
	meta := binenc.NewReader(metaPayload)
	mode := TokenMode(meta.Uint())
	q := meta.Uint()
	numSets := meta.Uint()
	numWords := meta.Uint()
	hasPostings := meta.Byte()
	var scoring *Scoring
	if meta.Remaining() > 0 {
		scoring = &Scoring{Metric: meta.Uint(), Similarity: meta.Uint(), Alpha: math.Float64frombits(meta.Uvarint())}
	}
	if err := meta.Err(); err != nil {
		return nil, corrupt("meta: %v", err)
	}
	if mode != ModeWord && mode != ModeQGram {
		return nil, corrupt("unknown token mode %d", mode)
	}
	if hasPostings > 1 {
		return nil, corrupt("bad postings flag %d", hasPostings)
	}

	dictPayload, err := r.expect(secDict)
	if err != nil {
		return nil, err
	}
	dr := binenc.NewReader(dictPayload)
	if numWords > dr.Remaining() { // each word costs ≥ 1 byte (its length)
		return nil, corrupt("word count %d exceeds dictionary payload", numWords)
	}
	dict := tokens.NewDictionary()
	for i := 0; i < numWords; i++ {
		word := dr.StringBytes()
		if err := dr.Err(); err != nil {
			return nil, corrupt("dictionary: %v", err)
		}
		if id := dict.InternBytes(word); int(id) != i {
			return nil, corrupt("token table duplicate %q at %d", word, i)
		}
	}
	if dr.Remaining() != 0 {
		return nil, corrupt("%d trailing dictionary bytes", dr.Remaining())
	}

	setsPayload, err := r.expect(secSets)
	if err != nil {
		return nil, err
	}
	sr := binenc.NewReader(setsPayload)
	if numSets > sr.Remaining() { // each slot costs ≥ 1 byte (its flag)
		return nil, corrupt("set count %d exceeds sets payload", numSets)
	}
	c := &Collection{Dict: dict, Mode: mode, Q: q, Sets: make([]Set, numSets)}
	c.Dir.base = make([]int32, 1, numSets+1)
	var dead []bool
	sl := setReader{numWords: numWords}
	sl.w.start(c, internDict, 0)
	for i := 0; i < numSets; i++ {
		switch sr.Byte() {
		case 0:
			if dead == nil {
				dead = make([]bool, numSets)
			}
			dead[i] = true
			sl.w.beginSet("", 0) // an empty placeholder
			sl.w.endSet()
		case 1:
			if err := sl.read(sr, i); err != nil {
				return nil, err
			}
		default:
			if err := sr.Err(); err != nil {
				return nil, corrupt("sets: %v", err)
			}
			return nil, corrupt("bad liveness flag for set %d", i)
		}
	}
	if sr.Remaining() != 0 {
		return nil, corrupt("%d trailing set bytes", sr.Remaining())
	}
	sl.w.finish(nil)
	if ents := c.Dir.ents; cap(ents) > len(ents) {
		c.Dir.ents = append(make([]DirEntry, 0, len(ents)), ents...)
	}

	snap := &SnapshotData{Coll: c, Dead: dead, Scoring: scoring}
	if hasPostings == 1 {
		postPayload, err := r.expect(secPostings)
		if err != nil {
			return nil, err
		}
		snap.Containers, err = decodePostings(postPayload, numWords)
		if err != nil {
			return nil, err
		}
	}

	if _, err := r.expect(secEnd); err != nil {
		return nil, err
	}
	if len(r.rest) != 0 {
		return nil, corrupt("%d trailing snapshot bytes", len(r.rest))
	}
	return snap, nil
}

// setReader writes the live set slots of a snapshot through one writer
// under internDict. The ids are read, never tokenized; each element's
// Length and key are derived from what was read when the writer finishes.
type setReader struct {
	w        writer
	numWords int
	text     []byte // one slot's name and element texts, back to back
	ends     []int  // where the name and each element's text end in text
}

// read decodes set slot i. The writer lays out its ids; its name and its
// elements' text become slices of one string.
func (sl *setReader) read(sr *binenc.Reader, i int) error {
	sl.text = append(sl.text[:0], sr.StringBytes()...)
	ne := sr.Count(2) // each element costs ≥ 2 bytes (raw len + token count)
	if err := sr.Err(); err != nil {
		return corrupt("set %d: %v", i, err)
	}
	sl.ends = append(sl.ends[:0], len(sl.text))
	sl.w.beginSet("", ne)
	for j := range ne {
		raw, err := sl.element(sr, i, j)
		if err != nil {
			return err
		}
		sl.text = append(sl.text, raw...)
		sl.ends = append(sl.ends, len(sl.text))
		sl.w.element("")
	}
	sl.w.endSet()
	text, s := string(sl.text), &sl.w.c.Sets[i]
	s.Name = text[:sl.ends[0]]
	for j := range s.Elements {
		s.Elements[j].Raw = text[sl.ends[j]:sl.ends[j+1]]
	}
	return nil
}

// element reads element j of set i, appending its token ids to the
// writer's ids and its chunk ids to its run, and returns its text, a view
// of the image. The token ids are deltas, the first from 0, and must
// ascend strictly inside the token table; chunk ids must be in it too. The
// stored length must equal the content's Length: every signature bound
// divides by it, so one that disagrees is a corrupt image, not an input.
func (sl *setReader) element(sr *binenc.Reader, i, j int) ([]byte, error) {
	w := &sl.w
	raw := sr.StringBytes()
	nt := sr.Count(1)
	for k, id := 0, 0; k < nt && sr.Err() == nil; k++ {
		d := sr.Uint()
		if sr.Err() == nil && ((k > 0 && d == 0) || d >= sl.numWords-id) {
			return nil, corrupt("set %d element %d token %d: delta %d after id %d, in a table of %d", i, j, k, d, id, sl.numWords)
		}
		id += d
		w.ids = append(w.ids, tokens.ID(id))
	}
	nc := sr.Count(1)
	if err := sr.Err(); err != nil {
		return nil, corrupt("set %d element %d: %v", i, j, err)
	}
	if nc > 0 && w.c.Mode == ModeWord {
		// The writer never writes one: word mode has no chunks.
		return nil, corrupt("set %d element %d carries %d chunk ids under word mode", i, j, nc)
	}
	for k := 0; k < nc; k++ {
		cid := sr.Uint()
		if sr.Err() == nil && cid >= sl.numWords {
			return nil, corrupt("set %d element %d chunk id %d out of range", i, j, cid)
		}
		w.run = append(w.run, tokens.ID(cid))
	}
	storedLen := sr.Uint()
	if err := sr.Err(); err != nil {
		return nil, corrupt("set %d element %d: %v", i, j, err)
	}
	n := nt
	if w.c.Mode == ModeQGram {
		n = utf8.RuneCount(raw)
	}
	if storedLen != n {
		return nil, corrupt("set %d element %d length %d, content has %d", i, j, storedLen, n)
	}
	return raw, nil
}

// decodePostings wraps the container postings payload in place: a
// uvarint token count, the offset table, and the blob area, all validated
// structurally in O(numTokens) with zero decoding of blob contents.
func decodePostings(payload []byte, numWords int) (*ContainerStore, error) {
	numTok, sz := binary.Uvarint(payload)
	if sz <= 0 || numTok != uint64(numWords) {
		return nil, corrupt("postings token count %d, want %d", numTok, numWords)
	}
	rest := payload[sz:]
	need := (numWords + 1) * 4
	if len(rest) < need {
		return nil, corrupt("postings offset table truncated")
	}
	cs, err := NewContainerStore(numWords, rest[:need], rest[need:])
	if err != nil {
		return nil, corrupt("postings: %v", err)
	}
	return cs, nil
}
