// Schema matching: discover web tables with matching schemas (the paper's
// second application, §8.1). Each table's schema is a set whose elements are
// attributes, each attribute a bag of its values; two schemas match when the
// maximum matching alignment of their attributes clears δ under Jaccard.
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
	n := flag.Int("n", 3000, "number of web tables")
	delta := flag.Float64("delta", 0.75, "relatedness threshold")
	flag.Parse()

	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: *n, Seed: 7})
	sets := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		sets[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	fmt.Printf("corpus: %d web-table schemas\n", len(sets))

	eng, err := silkmoth.NewEngine(sets, silkmoth.Config{
		Metric:     silkmoth.SetSimilarity,
		Similarity: silkmoth.Jaccard,
		Delta:      *delta,
	})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	pairs, err := eng.DiscoverContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d matching schema pairs in %v\n",
		len(pairs), time.Since(start).Round(time.Millisecond))

	show := pairs
	if len(show) > 5 {
		show = show[:5]
	}
	for _, p := range show {
		fmt.Printf("  %.3f  %s ~ %s\n", p.Relatedness, p.RName, p.SName)
	}
	st := eng.Stats()
	fmt.Printf("funnel: %d candidates -> %d after check -> %d after NN -> %d verified\n",
		st.Candidates, st.AfterCheck, st.AfterNN, st.Verified)
}
