package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"silkmoth/internal/dataset"
)

// RepeatedElements generates nSets sets of 2–5 elements drawn from a pool
// of only `pool` distinct element strings, so that nearly every element
// recurs across sets — the repetition the filters' per-pass similarity memo
// exists for, at a size brute force can check. An element is 2–4 short words
// over a 12-word vocabulary; under q-gram tokenization the same strings
// serve as titles, a few edits apart.
func RepeatedElements(seed int64, nSets, pool int) []dataset.RawSet {
	rng := rand.New(rand.NewSource(seed))
	elems := make([]string, pool)
	for i := range elems {
		words := make([]string, 2+rng.Intn(3))
		for w := range words {
			words[w] = fmt.Sprintf("w%c%d", 'a'+rune(rng.Intn(3)), rng.Intn(4))
		}
		elems[i] = strings.Join(words, " ")
	}
	raws := make([]dataset.RawSet, nSets)
	for i := range raws {
		es := make([]string, 2+rng.Intn(4))
		for j := range es {
			es[j] = elems[rng.Intn(pool)]
		}
		raws[i] = dataset.RawSet{Name: fmt.Sprintf("S%d", i), Elements: es}
	}
	return raws
}
