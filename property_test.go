package silkmoth

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The public-API exactness property: Discover's pairs are exactly the pairs
// whose pairwise Compare clears Delta — no more (soundness of verification)
// and no fewer (no false negatives from signatures or filters).
func TestDiscoverAgreesWithPairwiseCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	mkSet := func(name string) Set {
		n := rng.Intn(3) + 1
		elems := make([]string, n)
		for i := range elems {
			k := rng.Intn(4) + 1
			s := ""
			for j := 0; j < k; j++ {
				if j > 0 {
					s += " "
				}
				s += fmt.Sprintf("w%d", rng.Intn(14))
			}
			elems[i] = s
		}
		return Set{Name: name, Elements: elems}
	}

	for trial := 0; trial < 10; trial++ {
		sets := make([]Set, 16)
		for i := range sets {
			sets[i] = mkSet(fmt.Sprintf("S%d", i))
		}
		for _, simFn := range []Similarity{Jaccard, Dice, Cosine} {
			for _, metric := range []Metric{SetSimilarity, SetContainment} {
				for _, delta := range []float64{0.4, 0.7} {
					cfg := Config{Metric: metric, Similarity: simFn, Delta: delta}
					eng, err := NewEngine(sets, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := make(map[[2]int]bool)
					for _, p := range eng.Discover() {
						got[[2]int{p.R, p.S}] = true
					}
					for r := 0; r < len(sets); r++ {
						for s := 0; s < len(sets); s++ {
							if r == s {
								continue
							}
							if metric == SetSimilarity && s < r {
								continue // unordered pairs reported once
							}
							rel, err := Compare(sets[r], sets[s], cfg)
							if err != nil {
								t.Fatal(err)
							}
							want := rel >= delta-1e-9
							if metric == SetContainment &&
								len(sets[r].Elements) > len(sets[s].Elements) {
								want = false // Definition 2: |R| ≤ |S|
							}
							if got[[2]int{r, s}] != want {
								t.Fatalf("trial %d %v %v δ=%v: pair (%d,%d) Compare=%v, Discover=%v",
									trial, simFn, metric, delta, r, s, rel, got[[2]int{r, s}])
							}
						}
					}
				}
			}
		}
	}
}

// randomCorpus builds a deterministic random workload of word sets with
// enough token overlap that deletes and updates land on related sets.
func randomCorpus(rng *rand.Rand, n int) []Set {
	sets := make([]Set, n)
	for i := range sets {
		elems := make([]string, rng.Intn(3)+1)
		for j := range elems {
			k := rng.Intn(4) + 1
			s := ""
			for w := 0; w < k; w++ {
				if w > 0 {
					s += " "
				}
				s += fmt.Sprintf("w%d", rng.Intn(18))
			}
			elems[j] = s
		}
		sets[i] = Set{Name: fmt.Sprintf("S%d", i), Elements: elems}
	}
	return sets
}

// matchKey is the engine-independent identity of one match: name, score,
// and relatedness. Indices differ between a mutated engine (tombstoned
// holes) and a fresh rebuild, names do not.
type matchKey struct {
	name        string
	relatedness float64
	score       float64
}

func matchKeys(ms []Match) []matchKey {
	out := make([]matchKey, len(ms))
	for i, m := range ms {
		out[i] = matchKey{m.Name, m.Relatedness, m.MatchingScore}
	}
	return out
}

// The public-API metamorphic mutation property: an engine mutated through
// Delete and Update must answer every query bit-identically (scores and
// order included) to an engine built fresh from only the surviving sets —
// tombstoned, compacted, and after a save/load round trip, unsharded and
// sharded alike. Matches are compared by (name, relatedness, score): ids
// differ across the engines by construction, but the canonical order is
// index-monotone, so positional comparison stays exact.
func TestMutatedEngineMatchesFreshRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(987654))
	for _, shards := range []int{0, 3} {
		for _, metric := range []Metric{SetSimilarity, SetContainment} {
			for _, simFn := range []Similarity{Jaccard, Eds} {
				sets := randomCorpus(rng, 24)
				cfg := Config{
					Metric:              metric,
					Similarity:          simFn,
					Delta:               0.5,
					Shards:              shards,
					CompactionThreshold: -1, // explicit Compact below
				}
				label := fmt.Sprintf("shards=%d/%v/%v", shards, metric, simFn)

				eng, err := NewEngine(sets, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Delete every third set; update every fourth to fresh
				// content under a new name.
				var surviving []Set
				for i, s := range sets {
					switch {
					case i%3 == 1:
						if err := eng.Delete(i); err != nil {
							t.Fatalf("%s: delete %d: %v", label, i, err)
						}
					case i%4 == 2:
						v2 := Set{Name: s.Name + "+v2", Elements: sets[(i*5+1)%len(sets)].Elements}
						if _, err := eng.Update(i, v2); err != nil {
							t.Fatalf("%s: update %d: %v", label, i, err)
						}
					default:
						surviving = append(surviving, s)
					}
				}
				// Updates append in application order — ascending original
				// index — so the fresh build lists them after the untouched
				// survivors, mirroring the mutated engine's live-id order.
				for i, s := range sets {
					if i%3 != 1 && i%4 == 2 {
						surviving = append(surviving, Set{Name: s.Name + "+v2", Elements: sets[(i*5+1)%len(sets)].Elements})
					}
				}
				if eng.Len() != len(surviving) {
					t.Fatalf("%s: Len = %d, want %d survivors", label, eng.Len(), len(surviving))
				}

				freshCfg := cfg
				fresh, err := NewEngine(surviving, freshCfg)
				if err != nil {
					t.Fatal(err)
				}

				check := func(stage string, got *Engine) {
					t.Helper()
					if err := CheckDirectoriesForTest(got); err != nil {
						t.Fatalf("%s/%s: %v", label, stage, err)
					}
					wantPairs := fresh.Discover()
					gotPairs := got.Discover()
					if len(gotPairs) != len(wantPairs) {
						t.Fatalf("%s/%s: %d pairs, fresh found %d", label, stage, len(gotPairs), len(wantPairs))
					}
					for i := range wantPairs {
						g, w := gotPairs[i], wantPairs[i]
						if g.RName != w.RName || g.SName != w.SName ||
							g.Relatedness != w.Relatedness || g.MatchingScore != w.MatchingScore {
							t.Fatalf("%s/%s: pair %d = %+v, fresh %+v", label, stage, i, g, w)
						}
					}
					for _, q := range surviving {
						wantMs, err := fresh.Search(q)
						if err != nil {
							t.Fatal(err)
						}
						gotMs, err := got.Search(q)
						if err != nil {
							t.Fatal(err)
						}
						gk, wk := matchKeys(gotMs), matchKeys(wantMs)
						if len(gk) != len(wk) {
							t.Fatalf("%s/%s: query %q: %d matches, fresh %d", label, stage, q.Name, len(gk), len(wk))
						}
						for i := range wk {
							if gk[i] != wk[i] {
								t.Fatalf("%s/%s: query %q match %d = %+v, fresh %+v", label, stage, q.Name, i, gk[i], wk[i])
							}
						}
						gotK, err := got.SearchTopK(q, 2)
						if err != nil {
							t.Fatal(err)
						}
						wantK := wk
						if len(wantK) > 2 {
							wantK = wantK[:2]
						}
						gotKk := matchKeys(gotK)
						if len(gotKk) != len(wantK) {
							t.Fatalf("%s/%s: query %q top-2: %d matches, fresh %d", label, stage, q.Name, len(gotKk), len(wantK))
						}
						for i := range wantK {
							if gotKk[i] != wantK[i] {
								t.Fatalf("%s/%s: query %q top-2 item %d = %+v, fresh %+v", label, stage, q.Name, i, gotKk[i], wantK[i])
							}
						}
					}
				}

				check("tombstoned", eng)
				eng.Compact()
				check("compacted", eng)

				// The compacted mutated engine must survive a save/load
				// round trip: the loaded engine is a fresh build over the
				// survivors.
				var buf bytes.Buffer
				if err := eng.SaveCollection(&buf); err != nil {
					t.Fatalf("%s: save: %v", label, err)
				}
				loaded, err := NewEngineFromSaved(&buf, cfg)
				if err != nil {
					t.Fatalf("%s: load: %v", label, err)
				}
				if loaded.Len() != len(surviving) {
					t.Fatalf("%s: loaded Len = %d, want %d", label, loaded.Len(), len(surviving))
				}
				check("reloaded", loaded)
			}
		}
	}
}
