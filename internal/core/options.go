// Package core assembles SilkMoth's unified framework (paper §3, Algorithm
// 3): tokenized collections feed an inverted index; each search pass
// generates a signature for the reference set, selects and refines
// candidates, and verifies the survivors with maximum-weight bipartite
// matching. The package supports both RELATED SET SEARCH and RELATED SET
// DISCOVERY, both SET-SIMILARITY and SET-CONTAINMENT, Jaccard and edit
// similarities with an optional element threshold α, and the brute-force
// and FastJoin-style baselines the paper evaluates against.
//
// # Where φ_α comes from
//
// The engine holds φ_α twice: phi, the kernel over two elements, and — for
// Jaccard, Dice and Cosine — fromOverlap, the same similarity as a function
// of the shared-token count and the two sizes (overlapFunc; nil under the
// edit similarities). Which one a stage uses follows from Options.Sim alone;
// there is no setting: newWorker sets up the worker's filters from it. When
// fromOverlap is set, the pipeline's nearest-neighbor filter and verification
// never call phi: a worker's NNSearcher is switched to CountOverlaps and its
// verifyScratch fills weight matrices through overlapSim, both reading
// counts off filter.Overlap's walk of the index. The worker's Collector is
// switched to CountOverlaps too: a signature is only part of an element, so
// its posting counts bound φ_α instead of giving it, and the check filter
// calls phi, through the collector's memo, for the pairs the bound cannot
// decide (and for none where the signature is the whole element). Under Eds
// and NEds the filters keep the kernel (and the searcher its memo): elements
// sharing no q-gram can still score, so the index does not name the cells.
// There the collector is given lenBoundFunc — what the kernel can reach on
// the two lengths alone — and drops the postings it rules out before the
// memo. BruteForceSearch, BruteForceDiscover and MatchScore always fill
// densely with phi — the first two because an oracle must not lean on the
// index it checks, the last because its sets are not indexed.
//
// # Hot-path annotations
//
// The steady-state query pipeline — the per-pass stages in plan.go
// (signature build, candidate collection, refine-and-verify) and the
// verification helpers in verify.go — is annotated //silkmoth:hotpath.
// The annotation is a machine-checked contract: the hotpath analyzer
// (internal/lint, run as `silkmothlint` in CI) rejects allocation-inducing
// constructs inside annotated functions, complementing the AllocsPerRun
// gates in alloc_test.go. Deliberately allocating paths (fullScan,
// verifyAll, run and steal) are left unannotated; keep the marker off any
// function that is supposed to allocate.
//
// # Counters
//
// There is one record of the pruning funnel, Funnel (stats.go). A search
// pass charges its worker's private copy (worker.pass) with plain adds,
// once per stage; a helper of a pass run in chunks charges its own worker's
// record per chunk, which the pass's record absorbs once the chunk is done.
// When the pass ends — on every return path, cancellation included —
// endPass folds that record into the worker's running total and, if the
// query carries a Capture (Query.Stats), into the capture under its lock.
// Searcher.Close folds the running total into the engine's cumulative
// Capture, which Engine.Stats reads. So shared memory is touched once per
// pass and once per retiring worker, never per stage or candidate.
//
// To add a counter: declare the field in Funnel, add its line to
// Funnel.Add, and charge it where the work happens (w.pass.X += n). A
// pass's helper chunks, Stats and every capture pick it up through Add. To
// surface it above the engine, give it a field in silkmoth.Funnel, a line
// in that package's funnelOf, and a row in the server's /metrics table
// (families): Explain, Stats and every silkmothd surface embed that one
// record.
package core

import (
	"errors"
	"fmt"
	"math"

	"silkmoth/internal/dataset"
	"silkmoth/internal/signature"
)

// Metric selects the set relatedness metric (paper Definitions 1 and 2).
type Metric int

const (
	// SetSimilarity is |R ∩̃ S| / (|R|+|S|-|R ∩̃ S|) ≥ δ.
	SetSimilarity Metric = iota
	// SetContainment is |R ∩̃ S| / |R| ≥ δ, defined for |R| ≤ |S|.
	SetContainment
)

func (m Metric) String() string {
	switch m {
	case SetSimilarity:
		return "SET-SIMILARITY"
	case SetContainment:
		return "SET-CONTAINMENT"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// SimKind selects the element similarity function φ (paper §2.1).
type SimKind int

const (
	// Jaccard compares elements as sets of whitespace words.
	Jaccard SimKind = iota
	// Eds is the edit similarity 1 - 2LD/(|x|+|y|+LD).
	Eds
	// NEds is the normalized edit similarity 1 - LD/max(|x|,|y|).
	NEds
	// Dice compares elements as sets of whitespace words with the Dice
	// coefficient 2|∩|/(|a|+|b|). Supported via the generalized weighted
	// scheme bounds (the paper's §2.1 notes other token-based functions
	// "can be supported in similar ways").
	Dice
	// Cosine compares elements as sets of whitespace words with the set
	// cosine similarity |∩|/√(|a||b|).
	Cosine
)

func (s SimKind) String() string {
	switch s {
	case Jaccard:
		return "Jac"
	case Eds:
		return "Eds"
	case NEds:
		return "NEds"
	case Dice:
		return "Dice"
	case Cosine:
		return "Cosine"
	default:
		return fmt.Sprintf("SimKind(%d)", int(s))
	}
}

// TokenMode returns the dataset tokenization the similarity requires:
// whitespace words for the token-based functions, q-grams for the edit
// similarities.
func (s SimKind) TokenMode() dataset.TokenMode {
	switch s {
	case Jaccard, Dice, Cosine:
		return dataset.ModeWord
	default:
		return dataset.ModeQGram
	}
}

// family maps the similarity to its signature bound family.
func (s SimKind) family() signature.Family {
	switch s {
	case Jaccard:
		return signature.FamilyJaccard
	case Eds, NEds:
		return signature.FamilyEdit
	case Dice:
		return signature.FamilyDice
	case Cosine:
		return signature.FamilyCosine
	default:
		panic("core: unknown similarity kind")
	}
}

// Options configures an Engine.
type Options struct {
	// Metric is the relatedness metric; default SetSimilarity.
	Metric Metric
	// Sim is the element similarity function; default Jaccard.
	Sim SimKind
	// Delta is the relatedness threshold δ ∈ (0, 1].
	Delta float64
	// Alpha is the element similarity threshold α ∈ [0, 1); similarities
	// below α count as 0 (paper §2.1, §6).
	Alpha float64
	// Q is the gram length for edit similarities. When 0 it defaults to
	// the largest sound value: ⌈α/(1-α)⌉-1 if α > 0 (paper footnote 11),
	// otherwise ⌈δ/(1-δ)⌉-1 (paper §7.3), floored at 1.
	Q int
	// Scheme is the signature scheme; default Dichotomy (the paper's
	// best performer at high α, identical to Weighted at α = 0).
	// signature.Auto selects among the weighted-family schemes per query
	// by the §4.3 probe-cost model over the inverted index's posting
	// statistics; results are identical to any fixed valid scheme.
	Scheme signature.Kind
	// CheckFilter enables the check filter (§5.1).
	CheckFilter bool
	// NNFilter enables the nearest-neighbor filter (§5.2); it subsumes
	// the check filter, which it requires.
	NNFilter bool
	// Reduction enables reduction-based verification (§5.3). It is only
	// sound for α = 0 under Jaccard or Eds (whose dual distances are
	// metrics) and is ignored otherwise.
	Reduction bool
	// Concurrency is the number of parallel search passes Discover and a
	// batch may run; values < 1 mean one. Each pass runs at the width the
	// call passes divided by its workers, at least one (fanOut); one
	// search's width is the caller's (SearchSplitContext).
	Concurrency int
	// StageSample is the per-worker sampling interval for per-stage wall
	// timing: one in every StageSample search passes records
	// signature/collect/refine/verify durations into the engine's stage
	// histograms and counters. 0 means DefaultStageSample, 1 times every
	// pass, negative disables sampling entirely. Queries with a stats
	// capture (explain) are always timed.
	StageSample int
	// CompactionThreshold triggers automatic compaction after a Delete
	// once the tombstone ratio — dead-but-still-indexed sets over all
	// indexed sets — reaches it. Compaction rebuilds the posting lists
	// over live sets, frees tombstoned element storage, and reclaims
	// dictionary entries no live set references. Values <= 0 disable
	// automatic compaction (Compact can still be called explicitly).
	CompactionThreshold float64
	// CompressPostings stores the inverted index's posting lists as
	// adaptive compressed containers (array / packed / bitmap) instead of
	// materialized slices, decoding lists lazily through a bounded LRU.
	// Results are identical; the trade is decode work on cold probes for a
	// fraction of the index heap.
	CompressPostings bool
	// PostingCacheBytes bounds the compressed index's LRU of materialized
	// hot lists; <= 0 selects index.DefaultPostingCacheBytes. Ignored
	// unless CompressPostings is set (or the index was loaded compressed).
	PostingCacheBytes int64
}

// DefaultOptions returns the full-strength SilkMoth configuration the
// paper's "OPT" uses: dichotomy signatures, both filters, and the
// verification reduction.
func DefaultOptions(metric Metric, simKind SimKind, delta, alpha float64) Options {
	return Options{
		Metric:      metric,
		Sim:         simKind,
		Delta:       delta,
		Alpha:       alpha,
		Scheme:      signature.Dichotomy,
		CheckFilter: true,
		NNFilter:    true,
		Reduction:   true,
	}
}

// FastJoinOptions returns the FastJoin-style baseline of §8.5: the combined
// unweighted signature scheme, no refinement filters, and plain
// verification.
func FastJoinOptions(metric Metric, simKind SimKind, delta, alpha float64) Options {
	return Options{
		Metric: metric,
		Sim:    simKind,
		Delta:  delta,
		Alpha:  alpha,
		Scheme: signature.CombUnweighted,
	}
}

// normalize validates o and fills defaults, returning the effective options.
func (o Options) normalize() (Options, error) {
	// Written as the ranges they mean: every comparison with NaN is false,
	// so the complement form would let a NaN threshold through.
	if !(o.Delta > 0 && o.Delta <= 1) {
		return o, fmt.Errorf("core: delta must be in (0, 1], got %v", o.Delta)
	}
	if !(o.Alpha >= 0 && o.Alpha < 1) {
		return o, fmt.Errorf("core: alpha must be in [0, 1), got %v", o.Alpha)
	}
	if o.Sim.TokenMode() == dataset.ModeQGram {
		if o.Q == 0 {
			o.Q = DefaultQ(o.Delta, o.Alpha)
		}
		if o.Q < 1 {
			return o, errors.New("core: q must be positive for edit similarities")
		}
	} else {
		o.Q = 0 // token-based similarities have no gram length
	}
	if err := checkScheme(o.Scheme); err != nil {
		return o, err
	}
	if o.Concurrency < 1 {
		o.Concurrency = 1
	}
	if o.StageSample == 0 {
		o.StageSample = DefaultStageSample
	}
	o.sound()
	return o, nil
}

// sound applies the two rules that keep a filter and verification setting
// exact, at engine construction and under every query's overrides alike:
// the NN filter consumes the check filter's state, so it implies the check
// filter; and the §5.3 reduction needs 1-φ_α to be a metric, true only for
// Jaccard and Eds at α = 0 (§6.5) — NEds, Dice, and Cosine duals violate
// the triangle inequality — so it stays off everywhere else.
func (o *Options) sound() {
	if o.NNFilter {
		o.CheckFilter = true
	}
	if o.Reduction && (o.Alpha != 0 || (o.Sim != Jaccard && o.Sim != Eds)) {
		o.Reduction = false
	}
}

// checkScheme rejects a signature scheme the engine does not run, in the
// engine's options and in a query's override alike.
func checkScheme(k signature.Kind) error {
	switch k {
	case signature.Weighted, signature.CombUnweighted, signature.Skyline,
		signature.Dichotomy, signature.Auto:
		return nil
	}
	return fmt.Errorf("core: unknown signature scheme %v", k)
}

// DefaultQ returns the largest sound gram length for the given thresholds:
// q < α/(1-α) when α > 0 (so sharing no q-gram forces φ_α = 0), else
// q < δ/(1-δ) (so the weighted scheme is non-empty, §7.3), floored at 1.
// At δ = 1 the bound is +Inf, which Go converts to an int differently on
// each platform; every q is sound there, and DefaultQ answers 1.
func DefaultQ(delta, alpha float64) int {
	bound := delta / (1 - delta)
	if alpha > 0 {
		bound = alpha / (1 - alpha)
	}
	if math.IsInf(bound, 1) {
		return 1
	}
	// The inequality is strict, and the bound may compute a hair above an
	// exact integer (0.8/(1-0.8) = 4.000000000000001), so nudge down.
	q := int(bound - 1e-9)
	if q < 1 {
		q = 1
	}
	return q
}
