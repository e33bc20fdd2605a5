package dataset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"silkmoth/internal/raceflag"
	"silkmoth/internal/tokens"
)

// buildAllocCorpus is a column-like corpus: sets of short multi-word
// values over a small vocabulary, so most tokens and element keys repeat.
func buildAllocCorpus() (raws []RawSet, elems int) {
	rng := rand.New(rand.NewSource(7))
	raws = make([]RawSet, 300)
	for i := range raws {
		es := make([]string, 4+rng.Intn(8))
		for j := range es {
			words := make([]string, 1+rng.Intn(4))
			for k := range words {
				words[k] = fmt.Sprintf("w%d", rng.Intn(400))
			}
			es[j] = strings.Join(words, " ")
		}
		raws[i] = RawSet{Name: fmt.Sprintf("S%d", i), Elements: es}
		elems += len(es)
	}
	return raws, elems
}

// buildAllocsPerElement is what one build of the corpus allocates per
// element, over a dictionary that already holds every token and key (a
// first build of the same corpus warms it), so no string is new.
func buildAllocsPerElement(build func(*tokens.Dictionary, []RawSet) *Collection) float64 {
	raws, elems := buildAllocCorpus()
	dict := tokens.NewDictionary()
	build(dict, raws)
	return testing.AllocsPerRun(5, func() { build(dict, raws) }) / float64(elems)
}

// TestBuildWordAllocGate pins what an indexed word-mode element costs to
// build once its tokens and key are known: nothing of its own. A set costs
// two objects, its element backing and its token run, which every element's
// Tokens slices, spread over its elements (0.28 per element on this
// corpus of 7.4-element sets). Keys are staged in one reused buffer, so a
// known key materialises no string.
func TestBuildWordAllocGate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	const budget = 0.3
	if got := buildAllocsPerElement(BuildWord); got > budget {
		t.Errorf("BuildWord allocates %.2f objects per element, budget %.2f", got, budget)
	}
}

// TestBuildQGramAllocGate is TestBuildWordAllocGate under ModeQGram: a
// third object per set, its chunk run sized up front (0.42 per element).
func TestBuildQGramAllocGate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	const budget = 0.45
	build := func(d *tokens.Dictionary, raws []RawSet) *Collection { return BuildQGram(d, raws, 3) }
	if got := buildAllocsPerElement(build); got > budget {
		t.Errorf("BuildQGram allocates %.2f objects per element, budget %.2f", got, budget)
	}
}
