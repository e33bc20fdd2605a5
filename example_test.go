package silkmoth_test

import (
	"context"
	"fmt"

	"silkmoth"
)

// The paper's running example: searching the Location column of Table 1
// against the collection S of Table 2 under SET-CONTAINMENT finds only S4.
func ExampleEngine_SearchContext() {
	collection := []silkmoth.Set{
		{Name: "S1", Elements: []string{
			"Mass Ave St Boston 02115", "77 Mass 5th St Boston", "77 Mass Ave 5th 02115"}},
		{Name: "S2", Elements: []string{
			"77 Boston MA", "77 5th St Boston 02115", "77 Mass Ave 02115 Seattle"}},
		{Name: "S3", Elements: []string{
			"77 Mass Ave 5th Boston MA", "Mass Ave Chicago IL", "77 Mass Ave St"}},
		{Name: "S4", Elements: []string{
			"77 Mass Ave MA", "5th St 02115 Seattle WA", "77 5th St Boston Seattle"}},
	}
	eng, err := silkmoth.NewEngine(collection, silkmoth.Config{
		Metric:     silkmoth.SetContainment,
		Similarity: silkmoth.Jaccard,
		Delta:      0.7,
	})
	if err != nil {
		panic(err)
	}
	matches, err := eng.SearchContext(context.Background(), silkmoth.Set{Name: "Location", Elements: []string{
		"77 Mass Ave Boston MA",
		"5th St 02115 Seattle WA",
		"77 5th St Chicago IL",
	}})
	if err != nil {
		panic(err)
	}
	for _, m := range matches {
		fmt.Printf("%s containment=%.3f\n", m.Name, m.Relatedness)
	}
	// Output:
	// S4 containment=0.743
}

// Discovery finds every related pair within one collection: here two
// near-duplicate titles pair up under edit similarity despite typos.
func ExampleEngine_DiscoverContext() {
	titles := []silkmoth.Set{
		{Name: "t1", Elements: []string{"Database", "Systems", "Concepts"}},
		{Name: "t2", Elements: []string{"Databse", "Systems", "Concpts"}}, // typos
		{Name: "t3", Elements: []string{"Quantum", "Computing", "Basics"}},
	}
	eng, err := silkmoth.NewEngine(titles, silkmoth.Config{
		Metric:     silkmoth.SetSimilarity,
		Similarity: silkmoth.Eds,
		Delta:      0.7,
		Alpha:      0.7,
	})
	if err != nil {
		panic(err)
	}
	pairs, err := eng.DiscoverContext(context.Background())
	if err != nil {
		panic(err)
	}
	for _, p := range pairs {
		fmt.Printf("%s ~ %s\n", p.RName, p.SName)
	}
	// Output:
	// t1 ~ t2
}
