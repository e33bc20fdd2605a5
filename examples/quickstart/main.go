// Quickstart: the paper's running example (Tables 1 and 2). A reference
// column of locations is searched against four candidate sets under
// SET-CONTAINMENT with Jaccard element similarity; only S4 is related at
// δ = 0.7, with matching score ≈ 2.229 and containment ≈ 0.743.
package main

import (
	"context"
	"fmt"
	"log"

	"silkmoth"
)

func main() {
	// The collection S = {S1..S4} of the paper's Table 2, written out
	// with the real tokens (t1 = "77", t2 = "Mass", ..., t12 = "IL").
	collection := []silkmoth.Set{
		{Name: "S1", Elements: []string{
			"Mass Ave St Boston 02115",
			"77 Mass 5th St Boston",
			"77 Mass Ave 5th 02115",
		}},
		{Name: "S2", Elements: []string{
			"77 Boston MA",
			"77 5th St Boston 02115",
			"77 Mass Ave 02115 Seattle",
		}},
		{Name: "S3", Elements: []string{
			"77 Mass Ave 5th Boston MA",
			"Mass Ave Chicago IL",
			"77 Mass Ave St",
		}},
		{Name: "S4", Elements: []string{
			"77 Mass Ave MA",
			"5th St 02115 Seattle WA",
			"77 5th St Boston Seattle",
		}},
	}

	eng, err := silkmoth.NewEngine(collection, silkmoth.Config{
		Metric:     silkmoth.SetContainment,
		Similarity: silkmoth.Jaccard,
		Delta:      0.7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The reference set R = the Location column of Table 1/2.
	reference := silkmoth.Set{Name: "Location", Elements: []string{
		"77 Mass Ave Boston MA",
		"5th St 02115 Seattle WA",
		"77 5th St Chicago IL",
	}}

	// Per-query options ride on any search: WithK truncates to the top k
	// and WithExplain captures this query's own plan — which concrete
	// signature scheme probed the index and what each filter pruned —
	// without touching the engine's cumulative Stats.
	ctx := context.Background()
	var ex silkmoth.Explain
	matches, err := eng.SearchContext(ctx, reference, silkmoth.WithK(2), silkmoth.WithExplain(&ex))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-2 sets related to %q at δ=0.7 (SET-CONTAINMENT, Jaccard):\n", reference.Name)
	for _, m := range matches {
		fmt.Printf("  %-4s containment=%.3f matching-score=%.3f\n",
			m.Name, m.Relatedness, m.MatchingScore)
	}

	fmt.Printf("plan: scheme=%s sig-tokens=%d, funnel %d candidates -> %d after check -> %d after NN -> %d verified (%.2fms)\n",
		ex.Scheme, ex.SigTokens, ex.Candidates, ex.AfterCheck, ex.AfterNN, ex.Verified,
		float64(ex.Elapsed.Microseconds())/1000)

	// A query can also pin the scheme or tighten δ without rebuilding:
	strict, err := eng.SearchContext(ctx, reference,
		silkmoth.WithDelta(0.74), silkmoth.WithScheme(silkmoth.SchemeSkyline))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("at δ=0.74 (skyline signatures): %d related sets\n", len(strict))
}
