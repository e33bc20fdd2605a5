// Package signature implements SilkMoth's valid-signature generation
// (paper §4, §6, §7). A signature for a reference set R is a subset of R's
// tokens such that any set S related to R must share at least one signature
// token. Selecting the cheapest valid signature is NP-complete (paper
// Theorem 2), so the package implements the paper's greedy cost/value
// heuristics for four schemes:
//
//   - Weighted (§4.2/§4.3): the full space of valid signatures for α = 0.
//   - CombUnweighted (§6.2): the state-of-the-art FastJoin-style scheme,
//     kept as the comparison baseline.
//   - Skyline (§6.3): weighted signature post-cut by the similarity
//     threshold α.
//   - Dichotomy (§6.4): cost/value greedy that saturates whole elements,
//     letting the sim-thresh signature cut them down.
//
// Under edit similarity (paper §7) signature tokens are q-chunks rather than
// word tokens, with the bound Σ |r|/(|r|+|k|) < θ in place of
// Σ (|r|-|k|)/|r| < θ.
package signature

import (
	"fmt"
	"math"

	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/tokens"
)

// Kind selects a signature scheme.
type Kind int

const (
	// Weighted is the weighted signature scheme of §4.2 (α ignored).
	Weighted Kind = iota
	// CombUnweighted is the combined unweighted scheme of §6.2, which
	// "more precisely describes the signature scheme proposed by
	// [FastJoin]". It is the baseline SilkMoth is compared against.
	CombUnweighted
	// Skyline is the skyline scheme of §6.3.
	Skyline
	// Dichotomy is the dichotomy scheme of §6.4.
	Dichotomy
	// Auto selects among the weighted-family schemes per query by the
	// §4.3 cost model over inverted-index posting statistics: signature
	// selection is framed as cost minimization, so the engine generates
	// the candidate signatures and probes with the cheapest (Selector).
	// Because every valid signature yields exactly the same matches,
	// Auto never changes results — only how much the index is probed.
	Auto
)

func (k Kind) String() string {
	switch k {
	case Weighted:
		return "WEIGHTED"
	case CombUnweighted:
		return "COMBUNWEIGHTED"
	case Skyline:
		return "SKYLINE"
	case Dichotomy:
		return "DICHOTOMY"
	case Auto:
		return "AUTO"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ElemSig is the per-element part of an unflattened signature.
type ElemSig struct {
	// Tokens is l_i: the signature tokens of element i, deduplicated.
	// Under edit similarity these are q-chunk ids (which are also q-gram
	// strings, so they can be probed against the q-gram inverted index).
	Tokens []tokens.ID
	// Bound is a sound upper bound on φ_α(r_i, s) for any element s that
	// contains none of Tokens. Saturated elements (sim-thresh cut) have
	// Bound 0; elements never contributing (empty) also have Bound 0.
	Bound float64
}

// Signature is an unflattened valid signature for one reference set.
type Signature struct {
	// Elements holds one ElemSig per element of the reference set.
	Elements []ElemSig
	// SumBound is Σ_i Bound_i, the upper bound on the maximum matching
	// score against any set sharing no signature token. For weighted-
	// family schemes SumBound < θ by construction; for CombUnweighted it
	// may exceed θ (its validity rests on the count argument instead), in
	// which case the refinement filters must not prune on bounds alone.
	SumBound float64
	// Valid reports whether the scheme could produce a valid signature.
	// When false (possible only under edit similarity, §7.3), the engine
	// must compare the reference against every set.
	Valid bool
}

// TokenSet returns the deduplicated union of all element signature tokens
// (the flattened signature K^T_R).
func (s *Signature) TokenSet() []tokens.ID {
	var all []tokens.ID
	for i := range s.Elements {
		all = append(all, s.Elements[i].Tokens...)
	}
	return tokens.SortUnique(all)
}

// Family identifies the per-element similarity bound shape a signature is
// generated under. The paper derives the weighted scheme for Jaccard (§4.2)
// and edit similarity (§7.1) and notes other token- and character-based
// functions "can be supported in similar ways"; Dice and Cosine instantiate
// that claim with their own sound bounds.
type Family int

const (
	// FamilyJaccard: missing k of |r| tokens bounds φ by (|r|-k)/|r|.
	FamilyJaccard Family = iota
	// FamilyEdit: missing k q-chunk occurrences forces LD ≥ k, bounding
	// Eds (and NEds ≤ Eds) by |r|/(|r|+k). Signature tokens are q-chunks.
	FamilyEdit
	// FamilyDice: with |r∩s| ≤ |r|-k and |s| ≥ |r∩s|,
	// Dice = 2|∩|/(|r|+|s|) ≤ 2(|r|-k)/(2|r|-k).
	FamilyDice
	// FamilyCosine: Cos = |∩|/√(|r||s|) ≤ |∩|/√(|r||∩|) = √(|∩|/|r|)
	// ≤ √((|r|-k)/|r|).
	FamilyCosine
)

func (f Family) String() string {
	switch f {
	case FamilyJaccard:
		return "jaccard"
	case FamilyEdit:
		return "edit"
	case FamilyDice:
		return "dice"
	case FamilyCosine:
		return "cosine"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// usesChunks reports whether signature tokens are q-chunks (edit family)
// rather than the element's word tokens.
func (f Family) usesChunks() bool { return f == FamilyEdit }

// length is el's dataset.Element.Length under the token mode of the
// family's similarities: its rune length for the edit family, its token
// count otherwise.
func (f Family) length(el *dataset.Element) int {
	if f.usesChunks() {
		return el.Length(dataset.ModeQGram)
	}
	return el.Length(dataset.ModeWord)
}

// Params carries the thresholds a signature is generated for.
type Params struct {
	// Delta is the relatedness threshold δ > 0; the maximum matching
	// threshold is θ = δ·|R| (§4.2).
	Delta float64
	// Alpha is the element similarity threshold α ∈ [0, 1).
	Alpha float64
	// Family selects the per-element bound shape; the zero value is
	// FamilyJaccard. It must agree with the collection's tokenization:
	// FamilyEdit for q-gram collections, any token family for word
	// collections.
	Family Family
}

// Theta returns the maximum matching threshold θ = δ·n for a reference set
// of n elements.
func (p Params) Theta(n int) float64 { return p.Delta * float64(n) }

// Generate builds a signature of the given kind for reference set r against
// the inverted index ix (whose lengths are the token costs). Params.Family
// selects between the Jaccard-style (§4), edit-similarity (§7), and the
// Dice/Cosine generalized formulations; it must match the collection's
// tokenization.
//
// This is the allocation-per-call convenience form; the engine's hot path
// holds a Selector (or Generator) per worker and reuses its scratch across
// queries. Kind Auto resolves through a throwaway Selector here.
func Generate(kind Kind, r *dataset.Set, p Params, ix *index.Inverted) Signature {
	var sel Selector
	sig, _ := sel.Generate(kind, r, p, ix)
	return *sig
}

// Selector resolves a signature scheme per query: concrete kinds pass
// through to one Generator; Auto generates the competing weighted-family
// signatures and keeps the one with the lowest probe cost (the §4.3 cost
// model Σ |I[t]| over the signature's per-element tokens, read off the
// inverted index's posting statistics).
//
// At α = 0 the sim-thresh size is unattainable, so Dichotomy never
// saturates and Skyline never cuts: all three weighted-family schemes
// produce the same signature, and Auto short-circuits to one Weighted
// generation. At α > 0 the skyline cut only ever shrinks a weighted
// signature (the cut is a subset of the element's tokens), so Weighted is
// dominated and Auto compares Skyline against Dichotomy, whose saturation
// reshapes greedy selection and can win or lose depending on the
// reference's posting lengths — exactly the trade the paper's §6
// experiments sweep.
//
// Like Generator, a Selector is not safe for concurrent use and the
// returned Signature is valid until its next Generate call. The zero value
// is ready to use.
type Selector struct {
	gen Generator
	// alt is the second arena Auto needs: the two candidate signatures
	// must be alive at once to compare costs.
	alt Generator
}

// Generate builds (or, for Auto, selects) the signature for r and returns
// it along with the concrete scheme that produced it.
func (s *Selector) Generate(kind Kind, r *dataset.Set, p Params, ix *index.Inverted) (*Signature, Kind) {
	if kind != Auto {
		return s.gen.Generate(kind, r, p, ix), kind
	}
	if p.Alpha <= 0 {
		return s.gen.Generate(Weighted, r, p, ix), Weighted
	}
	sigD := s.gen.Generate(Dichotomy, r, p, ix)
	sigS := s.alt.Generate(Skyline, r, p, ix)
	// An invalid signature means a full scan; any valid one beats it.
	if sigD.Valid != sigS.Valid {
		if sigD.Valid {
			return sigD, Dichotomy
		}
		return sigS, Skyline
	}
	if ProbeCost(sigS, ix) < ProbeCost(sigD, ix) {
		return sigS, Skyline
	}
	return sigD, Dichotomy // ties go to the paper's overall best performer
}

// ProbeCost is the §4.3 cost of probing the index with sig: the sum of
// posting-list lengths over every per-element signature token — the number
// of ⟨reference element, posting⟩ visits candidate collection will make.
func ProbeCost(sig *Signature, ix *index.Inverted) int64 {
	var cost int64
	for i := range sig.Elements {
		for _, t := range sig.Elements[i].Tokens {
			cost += int64(ix.ListLen(t))
		}
	}
	return cost
}

// ValiditySlack is the absolute margin kept between a signature's SumBound
// and θ. Greedy selection keeps picking tokens until SumBound < θ -
// ValiditySlack, so that incremental floating-point drift in the bound sum
// can never make a mathematically-invalid signature (SumBound = θ exactly)
// appear valid. Refinement filters prune with the same margin. The margin is
// far above accumulated float error (≤ ~1e-12 for realistic set sizes) and
// far below any meaningful score difference.
const ValiditySlack = 1e-7

// floorEps guards ⌊x⌋ computations whose x is mathematically an integer but
// computed slightly below it (e.g. (1-0.8)/0.8·12 = 2.9999...96): sizes
// derived from such floors must round up, never down, to stay sound.
const floorEps = 1e-9

// simThreshSize returns the number of signature token occurrences that force
// φ(r, s) < α for any s missing all of them (§6.1, §7.2, and the analogous
// derivations for Dice and Cosine):
//
//	Jaccard: |∩|/|∪| ≤ (|r|-m)/|r| < α        ⟸ m > (1-α)·|r|
//	Edit:    LD ≥ m  ⇒ Eds ≤ |r|/(|r|+m) < α ⟸ m > (1-α)/α·|r|
//	Dice:    2(|r|-m)/(2|r|-m) < α            ⟸ m > 2(1-α)/(2-α)·|r|
//	Cosine:  √((|r|-m)/|r|) < α               ⟸ m > (1-α²)·|r|
//
// It returns (size, true), or (0, false) when saturation is unattainable
// (α = 0, empty elements, or more occurrences required than available).
func simThreshSize(f Family, alpha float64, elemLen, available int) (int, bool) {
	if alpha <= 0 || elemLen == 0 {
		return 0, false
	}
	l := float64(elemLen)
	var need float64
	switch f {
	case FamilyJaccard:
		need = (1 - alpha) * l
	case FamilyEdit:
		need = (1 - alpha) / alpha * l
	case FamilyDice:
		need = 2 * (1 - alpha) / (2 - alpha) * l
	case FamilyCosine:
		need = (1 - alpha*alpha) * l
	default:
		panic("signature: unknown family")
	}
	size := int(math.Floor(need+floorEps)) + 1
	if size > available {
		return 0, false
	}
	return size, true
}
