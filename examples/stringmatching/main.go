// String matching: discover near-duplicate publication titles in a
// DBLP-like corpus (the paper's first application, §8.1). Each title is a
// set of its words; words match under edit similarity with a high α, so
// "Databse Systms Concpts" still pairs with "Database Systems Concepts".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"silkmoth"
	"silkmoth/internal/datagen"
)

func main() {
	n := flag.Int("n", 2000, "number of titles")
	delta := flag.Float64("delta", 0.8, "relatedness threshold")
	alpha := flag.Float64("alpha", 0.8, "edit similarity threshold")
	flag.Parse()

	raws := datagen.DBLP(datagen.DBLPConfig{NumTitles: *n, Seed: 42})
	sets := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		sets[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	fmt.Printf("corpus: %d titles (with planted near-duplicates)\n", len(sets))

	eng, err := silkmoth.NewEngine(sets, silkmoth.Config{
		Metric:     silkmoth.SetSimilarity,
		Similarity: silkmoth.Eds,
		Delta:      *delta,
		Alpha:      *alpha,
	})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	pairs, err := eng.DiscoverContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("found %d related title pairs in %v\n", len(pairs), elapsed.Round(time.Millisecond))
	show := pairs
	if len(show) > 5 {
		show = show[:5]
	}
	for _, p := range show {
		fmt.Printf("  %.3f  %s ~ %s\n", p.Relatedness, p.RName, p.SName)
	}
	st := eng.Stats()
	naive := int64(len(sets)) * int64(len(sets)-1) / 2
	fmt.Printf("verified %d matchings instead of %d naive comparisons (%.1fx fewer)\n",
		st.Verified, naive, float64(naive)/float64(max64(st.Verified, 1)))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
