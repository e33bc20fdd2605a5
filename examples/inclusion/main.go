// Approximate inclusion dependency: given a reference column, find all
// columns that approximately contain it (the paper's third application,
// §8.1) — the "is this column joinable with that one?" question. Containment
// tolerates dirty values: a column still contains the reference when a few
// values differ by a word.
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
	n := flag.Int("n", 3000, "number of columns")
	numRefs := flag.Int("refs", 50, "number of reference columns to search")
	delta := flag.Float64("delta", 0.75, "containment threshold")
	alpha := flag.Float64("alpha", 0.5, "value similarity threshold")
	flag.Parse()

	raws := datagen.WebTableColumns(datagen.ColumnConfig{NumColumns: *n, Seed: 99})
	sets := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		sets[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	fmt.Printf("corpus: %d columns\n", len(sets))

	eng, err := silkmoth.NewEngine(sets, silkmoth.Config{
		Metric:     silkmoth.SetContainment,
		Similarity: silkmoth.Jaccard,
		Delta:      *delta,
		Alpha:      *alpha,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	refRaws := datagen.PickReferences(raws, *numRefs, 4)
	start := time.Now()
	found := 0
	for _, r := range refRaws {
		ms, err := eng.SearchContext(ctx, silkmoth.Set{Name: r.Name, Elements: r.Elements})
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range ms {
			if m.Name == r.Name {
				continue // a column trivially contains itself
			}
			found++
			if found <= 5 {
				fmt.Printf("  %s ⊑ %s (containment %.3f)\n", r.Name, m.Name, m.Relatedness)
			}
		}
	}
	fmt.Printf("searched %d references in %v: %d approximate inclusion dependencies\n",
		len(refRaws), time.Since(start).Round(time.Millisecond), found)

	// Sanity: planted supercolumns should dominate the findings.
	st := eng.Stats()
	fmt.Printf("funnel: %d candidates -> %d after check -> %d after NN -> %d verified\n",
		st.Candidates, st.AfterCheck, st.AfterNN, st.Verified)
}
