// Package silkmoth discovers related sets under maximum matching
// constraints, implementing Deng, Kim, Madden & Stonebraker, "SILKMOTH: An
// Efficient Method for Finding Related Sets with Maximum Matching
// Constraints" (VLDB 2017).
//
// Two sets are related when the score of the maximum-weight bipartite
// matching between their elements — weighted by an element similarity
// function — clears a threshold. Unlike exact set overlap, this tolerates
// dirty data: "77 Mass Ave Boston MA" still aligns with "77 Massachusetts
// Avenue Boston MA". SilkMoth finds all related pairs exactly (identical
// output to brute force) but prunes the vast majority of comparisons with
// valid signatures, a check filter, a nearest-neighbor filter, and a
// triangle-inequality reduction of the final matching computation.
//
// # Quick start
//
//	sets := []silkmoth.Set{
//		{Name: "addresses", Elements: []string{"77 Mass Ave Boston MA", "5th St Seattle WA"}},
//		{Name: "locations", Elements: []string{"77 Massachusetts Ave Boston MA", "Fifth St Seattle WA"}},
//	}
//	eng, err := silkmoth.NewEngine(sets, silkmoth.Config{
//		Metric:     silkmoth.SetSimilarity,
//		Similarity: silkmoth.Jaccard,
//		Delta:      0.7,
//	})
//	if err != nil { ... }
//	pairs, err := eng.DiscoverContext(ctx) // all related pairs within sets
//
// Search mode finds everything related to one reference set:
//
//	matches, err := eng.SearchContext(ctx, silkmoth.Set{Elements: []string{...}})
//
// Every query method takes a context first, and a query aborts with
// ctx.Err() once ctx is done.
//
// # Metrics, similarities, thresholds
//
// Metric selects SET-SIMILARITY (approximate set equality) or
// SET-CONTAINMENT (approximate subset, |R| ≤ |S|). Similarity selects the
// element-level φ: Jaccard, Dice, or Cosine over whitespace words, or the
// edit similarities Eds and NEds over characters. Delta ∈ (0, 1] is the
// relatedness threshold; Alpha ∈ [0, 1) optionally zeroes element
// similarities below it. Engines additionally support top-k search,
// collection persistence, and direct pairwise Compare.
//
// # Per-query options and explainable results
//
// Config freezes an engine's defaults; QueryOptions override them one
// query at a time. Every query method takes a trailing option list:
//
//	var ex silkmoth.Explain
//	matches, err := eng.SearchContext(ctx, ref,
//		silkmoth.WithK(10),                        // top-k truncation
//		silkmoth.WithScheme(silkmoth.SchemeSkyline), // pin the signature scheme
//		silkmoth.WithDelta(0.9),                   // per-query threshold
//		silkmoth.WithExplain(&ex),                 // capture the plan
//	)
//
// Option-less calls are bit-identical to the engine's configured behavior.
// WithScheme never changes results (schemes only decide how the index is
// probed — pair it with WithExplain to audit SchemeAuto's choices), while
// WithDelta returns exactly what an engine built with that δ would.
// WithCheckFilter and WithNNFilter switch individual filters off, which
// only they can: disabling them never changes matches, only cost. The NN filter implies the check filter, so
// WithCheckFilter(false) takes effect only with WithNNFilter(false).
//
// An Explain captured with WithExplain reports the executed plan: the
// concrete scheme that probed the index, the per-stage pruning funnel —
// signature tokens, candidates, check-filter and NN-filter survivors,
// verifications — and wall time. A search is one pass at every width.
//
// Every search takes one path, SearchBatchQueriesContext: each BatchQuery
// carries its own options, so a mixed workload can pin schemes, set k and
// δ, and capture explains item by item, and each item's Result carries its
// matches, its Explain and its own error. SearchContext is a batch of one
// and SearchTopKContext a SearchContext with WithK.
//
// # Mutation
//
// Collections are fully mutable: Add indexes more sets incrementally,
// Delete tombstones a set out of every future query (stable ids, never
// reused), and Update atomically replaces one set under a fresh id.
// Deleted storage is reclaimed lazily — postings rebuilt, dead elements
// dropped, unused dictionary entries recycled — once the tombstone ratio
// reaches Config.CompactionThreshold (or on an explicit Compact call).
// Mutations never change what queries return: a mutated engine answers
// exactly like one built fresh from its surviving sets, and SaveCollection
// persists that compacted form under the same ids — the one snapshot image
// Config.DataDir also stores (see the README's Durability section).
//
// # Concurrency and serving
//
// Engines are safe for concurrent use. An engine guards its state with one
// read-write lock: queries share its read side and run in parallel, and
// mutations (Add, Delete, Update, Compact, Snapshot) take its write side, so
// in-flight queries finish first and later ones see the change.
//
// An engine holds one inverted index, and one search is one pass: one
// signature, then candidate collection, refinement and verification. The
// caller's goroutine runs the first set-id chunk of the pass and times it; a
// short pass finishes there, and a long one starts helpers, up to
// Config.Shards goroutines in all (GOMAXPROCS by default), that claim the
// remaining chunks with it. Results are guaranteed identical at every
// width. Every call runs its passes by one rule: a search, a batch or a
// discovery of n passes fans them out on min(Config.Concurrency, n)
// workers, and each pass runs at the width those workers leave idle,
// Config.Shards / workers goroutines (at least one). A
// search, a batch of one and a discovery on one worker split like a search;
// a batch answers its searches in one call, amortizing tokenization.
//
// To serve an engine over HTTP/JSON — search, top-k, discovery, compare,
// explain, and incremental indexing behind a bounded worker pool with an
// LRU result cache and Prometheus-style metrics — run the cmd/silkmothd
// daemon (built on the internal server package). Its /v1/explain endpoint
// and per-request scheme/delta/explain fields expose the query options on
// the wire.
package silkmoth

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"silkmoth/internal/core"
	"silkmoth/internal/signature"
)

// Set is a named collection of raw string elements. How elements are
// tokenized depends on the engine's Similarity: whitespace words for
// Jaccard, q-grams/q-chunks for the edit similarities.
type Set struct {
	Name     string
	Elements []string
}

// Metric selects the set relatedness metric.
type Metric int

const (
	// SetSimilarity relates R and S when
	// |R ∩̃ S| / (|R|+|S|-|R ∩̃ S|) ≥ Delta.
	SetSimilarity Metric = iota
	// SetContainment relates R and S (|R| ≤ |S|) when
	// |R ∩̃ S| / |R| ≥ Delta.
	SetContainment
)

var metricNames = [...]string{SetSimilarity: "set-similarity", SetContainment: "set-containment"}

func (m Metric) String() string { return enumString(metricNames[:], "Metric", m) }

// MarshalText returns m's String form.
func (m Metric) MarshalText() ([]byte, error) { return enumText(metricNames[:], "metric", m) }

// UnmarshalText sets m from its String form or from the flag spellings
// "similarity" and "containment", which drop String's "set-".
func (m *Metric) UnmarshalText(text []byte) error {
	if parseEnum(m, metricNames[:], "metric", "set-"+string(text)) == nil {
		return nil
	}
	return parseEnum(m, metricNames[:], "metric", string(text))
}

// Similarity selects the element similarity function φ.
type Similarity int

const (
	// Jaccard treats each element as a set of whitespace-delimited words.
	Jaccard Similarity = iota
	// Eds is the edit similarity 1 - 2·LD/(|x|+|y|+LD); its dual distance
	// is a metric, enabling the verification reduction.
	Eds
	// NEds is the normalized edit similarity 1 - LD/max(|x|,|y|).
	NEds
	// Dice treats elements as sets of whitespace words compared with the
	// Dice coefficient 2|∩|/(|a|+|b|).
	Dice
	// Cosine treats elements as sets of whitespace words compared with
	// the set cosine similarity |∩|/√(|a||b|).
	Cosine
)

var similarityNames = [...]string{Jaccard: "jaccard", Eds: "eds", NEds: "neds", Dice: "dice", Cosine: "cosine"}

func (s Similarity) String() string { return enumString(similarityNames[:], "Similarity", s) }

// MarshalText returns s's String form.
func (s Similarity) MarshalText() ([]byte, error) {
	return enumText(similarityNames[:], "similarity", s)
}

// UnmarshalText sets s from its String form.
func (s *Similarity) UnmarshalText(text []byte) error {
	return parseEnum(s, similarityNames[:], "similarity", string(text))
}

// Scheme selects the signature scheme used to prune the search space.
type Scheme int

const (
	// SchemeDichotomy (default) is the paper's best performer: the
	// cost/value greedy with sim-thresh saturation (§6.4).
	SchemeDichotomy Scheme = iota
	// SchemeSkyline post-cuts a weighted signature by the similarity
	// threshold (§6.3); strongest at small α.
	SchemeSkyline
	// SchemeWeighted is the pure weighted scheme of §4.2.
	SchemeWeighted
	// SchemeCombUnweighted is the FastJoin-style baseline of §6.2.
	SchemeCombUnweighted
	// SchemeAuto picks among Weighted, Skyline, and Dichotomy per query
	// by the paper's §4.3 cost model: the engine generates the candidate
	// signatures and probes with the one whose posting-list cost is
	// lowest. Results are always identical to any fixed scheme — schemes
	// only decide how much of the index is probed — so Auto trades a
	// little generation work for the cheapest probe each query.
	// Stats.SchemeWeighted/SchemeSkyline/SchemeDichotomy expose the
	// per-query choices.
	SchemeAuto
)

var schemeNames = [...]string{
	SchemeDichotomy: "dichotomy", SchemeSkyline: "skyline", SchemeWeighted: "weighted",
	SchemeCombUnweighted: "combunweighted", SchemeAuto: "auto",
}

func (s Scheme) String() string { return enumString(schemeNames[:], "Scheme", s) }

// MarshalText returns s's String form.
func (s Scheme) MarshalText() ([]byte, error) { return enumText(schemeNames[:], "scheme", s) }

// UnmarshalText sets s from its String form ("dichotomy", "skyline",
// "weighted", "combunweighted", "auto").
func (s *Scheme) UnmarshalText(text []byte) error {
	return parseEnum(s, schemeNames[:], "scheme", string(text))
}

// enumString returns v's entry in names, its type's String forms, or
// typ(v) when v is none of its type's constants.
func enumString[T ~int](names []string, typ string, v T) string {
	if v < 0 || int(v) >= len(names) {
		return fmt.Sprintf("%s(%d)", typ, int(v))
	}
	return names[v]
}

// enumText returns v's entry in names as text, or an error naming its
// type when v is none of the type's constants.
func enumText[T ~int](names []string, typ string, v T) ([]byte, error) {
	if v < 0 || int(v) >= len(names) {
		return nil, fmt.Errorf("silkmoth: %s %d has no text form", typ, int(v))
	}
	return []byte(names[v]), nil
}

// parseEnum sets *v to the constant whose entry in names is text.
func parseEnum[T ~int](v *T, names []string, typ, text string) error {
	for c, name := range names {
		if name == text {
			*v = T(c)
			return nil
		}
	}
	return fmt.Errorf("silkmoth: unknown %s %q (want %s)", typ, text, strings.Join(names, ", "))
}

// kind lowers the public scheme to the signature package's kind.
func (s Scheme) kind() (signature.Kind, error) { return lower(schemeKinds[:], s) }

// coreMetrics, coreSims and schemeKinds lower each constant of Metric,
// Similarity and Scheme to the internal packages' form.
var (
	coreMetrics = [len(metricNames)]core.Metric{SetSimilarity: core.SetSimilarity, SetContainment: core.SetContainment}
	coreSims    = [len(similarityNames)]core.SimKind{Jaccard: core.Jaccard, Eds: core.Eds, NEds: core.NEds, Dice: core.Dice, Cosine: core.Cosine}
	schemeKinds = [len(schemeNames)]signature.Kind{
		SchemeDichotomy: signature.Dichotomy, SchemeSkyline: signature.Skyline, SchemeWeighted: signature.Weighted,
		SchemeCombUnweighted: signature.CombUnweighted, SchemeAuto: signature.Auto,
	}
)

// lower returns v's entry in table, or an error when v is none of its
// type's constants.
func lower[T ~int, K any](table []K, v T) (K, error) {
	if v < 0 || int(v) >= len(table) {
		var zero K
		return zero, fmt.Errorf("silkmoth: unknown %v", v)
	}
	return table[v], nil
}

// Config configures an Engine. The zero value is not valid: Delta must be
// positive. Every engine runs the paper's full pipeline — the check filter,
// the NN filter and the verification reduction (the last only at Alpha = 0
// under Jaccard or Eds); WithCheckFilter and WithNNFilter switch the
// filters off one query at a time.
type Config struct {
	// Metric is the relatedness metric; default SetSimilarity.
	Metric Metric
	// Similarity is the element similarity; default Jaccard.
	Similarity Similarity
	// Delta ∈ (0, 1] is the relatedness threshold δ.
	Delta float64
	// Alpha ∈ [0, 1) is the element similarity threshold α; element
	// similarities below Alpha count as zero. Optional.
	Alpha float64
	// Q is the gram length for edit similarities; 0 picks the largest
	// sound value automatically.
	Q int
	// Scheme is the signature scheme; default SchemeDichotomy.
	Scheme Scheme
	// Concurrency bounds the parallel search passes of DiscoverContext,
	// DiscoverAgainstContext and SearchBatchQueriesContext: a call of n
	// passes runs them on min(Concurrency, n) workers; values < 1 mean one.
	// Each pass gets the width its workers leave idle, Shards / workers
	// goroutines (at least one), so a call runs on at most
	// max(Concurrency, Shards) goroutines.
	Concurrency int
	// Shards is a search's width: the most goroutines one search pass runs
	// on, shared among the parallel passes of a discovery or batch (see
	// Concurrency). After its one signature, a pass runs its first set-id
	// chunk on the caller's goroutine; once that proves it long, helpers
	// start and claim the remaining chunks with the caller, each chunk
	// collecting, refining and verifying its own candidates through posting
	// lists cut to it. 0 means runtime.GOMAXPROCS(0), 1 keeps every pass on
	// its worker's goroutine, and N caps it at N. NewEngine tokenizes the
	// sets and fills the index's lists from that many set-id ranges in
	// parallel, with the ids and lists of a serial build. There is one
	// index at every width, so a durable engine reopens without an index
	// build whatever width wrote it, and results are provably identical at
	// every width (same matches, same scores, same order).
	Shards int
	// StageSample controls per-stage wall timing of search passes: one in
	// every StageSample passes records its signature/collect/refine/verify
	// durations into the engine's stage histograms (StageLatencies) and
	// cumulative counters (Stats). 0 means the default sampling interval
	// (one in 16), 1 times every pass, negative disables sampling. Queries
	// with an explain capture are always timed regardless. Timing is
	// allocation-free either way.
	StageSample int
	// DataDir enables durability: a directory holding a binary snapshot
	// of the engine (collection, dictionary, postings) plus a write-ahead
	// log of every Add/Delete/Update appended and fsync'd before the
	// mutation is acknowledged. NewEngine with a DataDir that already
	// holds state recovers from it — latest snapshot loaded with zero
	// re-tokenization, log replayed over it (tolerating a torn tail from
	// a crash mid-append) — and ignores its sets argument; an empty
	// DataDir bootstraps from sets and writes the initial snapshot.
	// Engine.Snapshot() rotates the pair; Engine.Close() releases the log
	// handle. Empty disables durability (a heap-only engine).
	DataDir string
	// CompactionThreshold controls when Delete and Update trigger
	// automatic compaction: once the fraction of tombstoned sets still
	// occupying the inverted index reaches it, posting lists are rebuilt
	// over the live sets, deleted element storage is dropped, and
	// dictionary entries no live set references are reclaimed for reuse.
	// 0 means the default (DefaultCompactionThreshold); negative disables
	// automatic compaction, leaving reclamation to explicit Compact calls.
	// Results are identical before and after compaction either way.
	CompactionThreshold float64
	// CompressedPostings encodes every posting list as an adaptive
	// compressed container (sorted array / delta-packed blocks / bitmap,
	// whichever is smallest per list). A token's postings are its
	// container followed by a slice of the postings of sets added since
	// the containers were encoded (compaction encodes them afresh); without
	// CompressedPostings there are no containers and the slices are the
	// lists. Queries decode a container only when a probe first touches
	// it, holding hot decodes in a bounded LRU, so the index costs a
	// fraction of the heap for identical results. With DataDir set,
	// recovery from a container-format snapshot becomes zero-copy: the file
	// is memory-mapped and posting bytes stay on disk until probed.
	CompressedPostings bool
	// PostingCacheBytes bounds the compressed index's LRU of decoded hot
	// posting lists, in bytes; 0 means the default (64 MiB). Ignored
	// without CompressedPostings.
	PostingCacheBytes int64
}

// DefaultCompactionThreshold is the tombstone ratio at which engines
// compact automatically when Config.CompactionThreshold is zero.
const DefaultCompactionThreshold = 0.25

// width resolves Shards: 0 is runtime.GOMAXPROCS(0), and a negative value
// keeps every search on the caller's goroutine, as 1 does.
func (c Config) width() int {
	if c.Shards == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(1, c.Shards)
}

// coreOptions validates c and lowers it to the core engine's options. Every
// engine constructor calls it first.
func (c Config) coreOptions() (core.Options, error) {
	metric, err := lower(coreMetrics[:], c.Metric)
	if err != nil {
		return core.Options{}, err
	}
	simKind, err := lower(coreSims[:], c.Similarity)
	if err != nil {
		return core.Options{}, err
	}
	scheme, err := c.Scheme.kind()
	if err != nil {
		return core.Options{}, err
	}
	if !(c.Delta > 0 && c.Delta <= 1) { // NaN fails too
		return core.Options{}, errors.New("silkmoth: Config.Delta must be in (0, 1]")
	}
	compact := c.CompactionThreshold
	if compact == 0 {
		compact = DefaultCompactionThreshold
	}
	if compact < 0 {
		compact = 0 // core: <= 0 disables automatic compaction
	}
	return core.Options{
		Metric:              metric,
		Sim:                 simKind,
		Delta:               c.Delta,
		Alpha:               c.Alpha,
		Q:                   c.Q,
		Scheme:              scheme,
		CheckFilter:         true,
		NNFilter:            true,
		Reduction:           true,
		Concurrency:         c.Concurrency,
		StageSample:         c.StageSample,
		CompactionThreshold: compact,
		CompressPostings:    c.CompressedPostings,
		PostingCacheBytes:   c.PostingCacheBytes,
	}, nil
}

// Match is one search result.
type Match struct {
	// Index locates the related set in the engine's collection.
	Index int
	// Name is the related set's name.
	Name string
	// Relatedness is the metric value, ≥ Delta.
	Relatedness float64
	// MatchingScore is the underlying maximum matching score |R ∩̃ S|.
	MatchingScore float64
}

// Pair is one discovery result.
type Pair struct {
	R, S          int
	RName, SName  string
	Relatedness   float64
	MatchingScore float64
}

// Stats reports the per-stage pruning funnel of an engine's work so far —
// signature generation through exact verification — plus the collection's
// mutation lifecycle counters. Its blocks (Funnel, SchemeCounts,
// PostingStorage, Durability) carry the JSON keys silkmothd's /v1/stats
// serves them under, and their fields are promoted: st.WALRecords is
// st.Durability.WALRecords.
type Stats struct {
	// SearchPasses is the number of reference sets processed.
	SearchPasses int64
	// Funnel is the pruning funnel summed over all of SearchPasses.
	Funnel
	// SchemeCounts splits the signatured passes by the scheme that probed
	// the index.
	SchemeCounts
	// TimedPasses counts the search passes whose stages were wall-timed
	// (sampled per Config.StageSample, plus every explained query); Stages
	// holds those passes' summed per-stage durations. Divide by
	// TimedPasses for a mean per-pass stage profile.
	TimedPasses int64
	Stages      StageTimes
	// SplitPasses counts the search passes whose first set-id chunk ran
	// long enough to start helpers, and HelperChunks the chunks those
	// helpers claimed: how often the width was used, and how much of the
	// work left the caller's goroutine.
	SplitPasses  int64
	HelperChunks int64
	// Live is the number of live (non-deleted) sets.
	Live int
	// Tombstones is the number of deleted sets whose postings are still
	// in the inverted index (zero right after a compaction).
	Tombstones int
	// Compactions counts compaction passes run.
	Compactions int64
	// Durability reports the snapshot/WAL layer: all zero on a heap-only
	// engine.
	Durability
	// PostingStorage reports how the index holds its posting lists.
	PostingStorage
}

// SchemeCounts counts signatured search passes by the concrete signature
// scheme that probed the index. Under Config.Scheme = SchemeAuto they expose
// the per-query cost-based selection; under a fixed scheme exactly one of
// them grows.
type SchemeCounts struct {
	SchemeWeighted       int64 `json:"weighted"`
	SchemeSkyline        int64 `json:"skyline"`
	SchemeDichotomy      int64 `json:"dichotomy"`
	SchemeCombUnweighted int64 `json:"combunweighted"`
}

// PostingStorage reports how the inverted index holds its posting lists:
// each is an adaptive compressed container, when the index has them,
// decoded lazily through a bounded cache, followed by a materialized slice.
type PostingStorage struct {
	// CompressedPostings reports whether the index stores posting lists as
	// compressed containers (Config.CompressedPostings, or a zero-copy
	// snapshot load).
	CompressedPostings bool `json:"compressed"`
	// Postings is the logical posting count across the index's lists.
	Postings int `json:"postings"`
	// PostingHeapBytes approximates the materialized slices of postings
	// held outside the decode cache: all lists on an uncompressed engine,
	// only the sets added since the containers were encoded on a
	// compressed one.
	PostingHeapBytes int64 `json:"heap_bytes"`
	// PostingEncodedBytes is the compressed container storage backing the
	// index (zero on an uncompressed engine). The compression ratio is
	// Postings*8 / PostingEncodedBytes.
	PostingEncodedBytes int64 `json:"encoded_bytes"`
	// PostingResidentBytes is the decode cache's current holding of hot
	// materialized lists.
	PostingResidentBytes int64 `json:"resident_bytes"`
	// PostingDirectoryBytes is the index's element directory: per indexed
	// element the content key and token count the filters read per
	// posting (8 bytes an element plus 4 a set). It is derived state,
	// present on compressed and uncompressed engines alike, and not part
	// of PostingHeapBytes.
	PostingDirectoryBytes int64 `json:"directory_bytes"`
	// PostingCacheHits / PostingCacheMisses count decode-cache probes of
	// compressed lists; PostingDecodeErrors counts container decode
	// failures (non-zero only with a corrupted snapshot).
	PostingCacheHits    int64 `json:"cache_hits"`
	PostingCacheMisses  int64 `json:"cache_misses"`
	PostingDecodeErrors int64 `json:"decode_errors"`
	// SnapshotMapped reports that the engine's containers alias a
	// memory-mapped snapshot (zero-copy load, postings paged from disk).
	SnapshotMapped bool `json:"snapshot_mapped"`
}

// Durability reports an engine's snapshot/WAL layer (Config.DataDir): what
// it has written since it opened, and what startup recovery found.
type Durability struct {
	// Snapshots counts durable snapshots written since the engine opened
	// (including the bootstrap snapshot).
	Snapshots int64 `json:"snapshots"`
	// WALRecords counts mutation records this engine appended (and
	// fsync'd) to its write-ahead log.
	WALRecords int64 `json:"wal_records"`
	// RecoveredSnapshot reports that the engine's state was loaded from a
	// durable snapshot at startup rather than built from scratch.
	RecoveredSnapshot bool `json:"recovered_snapshot"`
	// WALReplayed is the number of log records replayed during startup
	// recovery.
	WALReplayed int `json:"wal_replayed"`
	// WALTornTail reports that startup replay stopped at an incomplete or
	// checksum-failing final record — the expected shape after a crash
	// mid-append; the torn tail was truncated away.
	WALTornTail bool `json:"wal_torn_tail"`
}
