package silkmoth

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"testing"

	"silkmoth/internal/dataset"
)

// novelQueries builds n queries out of corpus sets of two elements or
// more and words and q-grams no corpus set holds. An even query is a near
// copy of its source set, its longest element extended by a word every
// query shares; an odd one extends it by that word and one only it holds,
// and adds an element that repeats its own word beside the shared one and
// another of its own.
func novelQueries(corpus []Set, n int) []Set {
	qs := make([]Set, 0, n)
	for i := 0; len(qs) < n; i++ {
		src := corpus[i%len(corpus)]
		if len(src.Elements) < 2 {
			continue
		}
		k, long := len(qs), 0
		elems := append([]string(nil), src.Elements...)
		for j, e := range elems {
			if len(e) > len(elems[long]) {
				long = j
			}
		}
		if k%2 == 0 {
			elems[long] += " zq"
		} else {
			nov := fmt.Sprintf("zq%dx", k)
			elems[long] += " " + nov + " zq"
			elems = append(elems, fmt.Sprintf("%s zq vv%dw %s", nov, k, nov))
		}
		qs = append(qs, Set{Name: fmt.Sprintf("Q%d", k), Elements: elems})
	}
	return qs
}

// novelConfigs are a word-token and a q-gram engine, the q-gram one at a
// δ whose default q is 2.
var novelConfigs = []Config{{Similarity: Jaccard, Delta: 0.4}, {Similarity: Eds, Delta: 0.7}}

// TestQueriesNeverWriteTheDictionary: a query reads the engine's token
// dictionary and never writes it. A thousand query builds and a round of
// searches, a batch, a discovery against references and pairwise Compares,
// all over sets holding words and q-grams the collection never had, leave
// the token table and the key table as the build left them, and answer
// exactly as the brute force over an engine whose dictionary holds every
// query token (its collection has the queries appended, so tokenizing them
// there meets nothing novel).
func TestQueriesNeverWriteTheDictionary(t *testing.T) {
	ctx := context.Background()
	corpus := autoGridCorpus(131, 30)
	queries := novelQueries(corpus, 8)
	n := len(corpus)
	for _, cfg := range novelConfigs {
		cfg.Shards = 2
		t.Run(cfg.Similarity.String(), func(t *testing.T) {
			eng, err := NewEngine(corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			held, err := NewEngine(append(corpus[:n:n], queries...), cfg)
			if err != nil {
				t.Fatal(err)
			}
			dict := eng.coll.Dict
			size, keys := dict.Size(), dict.Keys().Size()

			var qs dataset.QueryScratch
			for i := 0; i < 1000; i++ {
				raw := dataset.RawSet{Name: "N", Elements: []string{fmt.Sprintf("novel%d tok1", i), "zz yy"}}
				qs.Build(dict, []dataset.RawSet{raw}, eng.coll.Mode, eng.coll.Q)
			}

			want := make([][]Match, len(queries))
			related := map[[2]int]float64{}
			var wantPairs []Pair
			total := 0
			for i, q := range queries {
				for _, m := range bruteForce(held, q) {
					if m.Index < n {
						want[i] = append(want[i], m)
						related[[2]int{i, m.Index}] = m.Relatedness
						wantPairs = append(wantPairs, Pair{R: i, S: m.Index, RName: q.Name, SName: m.Name, Relatedness: m.Relatedness, MatchingScore: m.MatchingScore})
					}
				}
				total += len(want[i])
			}
			t.Logf("%d matches over %d queries", total, len(queries))
			if total < len(queries)/2 {
				t.Fatalf("%d matches over %d queries: the test checks too little", total, len(queries))
			}
			sort.Slice(wantPairs, func(a, b int) bool {
				if wantPairs[a].R != wantPairs[b].R {
					return wantPairs[a].R < wantPairs[b].R
				}
				return wantPairs[a].S < wantPairs[b].S
			})

			batch := make([]BatchQuery, len(queries))
			for i, q := range queries {
				batch[i].Set = q
				got, err := eng.SearchContext(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, fmt.Sprintf("search %d", i), got, want[i])
			}
			res, err := eng.SearchBatchQueriesContext(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				matchesEqual(t, fmt.Sprintf("batch item %d", i), r.Matches, want[i])
			}
			pairs, err := eng.DiscoverAgainstContext(ctx, queries)
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != len(wantPairs) {
				t.Fatalf("discover-against: %d pairs, want %d", len(pairs), len(wantPairs))
			}
			for i := range pairs {
				if pairs[i] != wantPairs[i] {
					t.Fatalf("discover-against pair %d: got %+v, want %+v", i, pairs[i], wantPairs[i])
				}
			}
			for i, q := range queries {
				for s := range corpus {
					rel, err := Compare(q, corpus[s], cfg)
					if err != nil {
						t.Fatal(err)
					}
					wantRel, ok := related[[2]int{i, s}]
					if ok != (rel >= cfg.Delta-1e-9) || ok && math.Abs(rel-wantRel) > 1e-9 {
						t.Fatalf("Compare(Q%d, S%d) = %v, brute force relates them: %v (%v)", i, s, rel, ok, wantRel)
					}
				}
			}

			if dict.Size() != size || dict.Keys().Size() != keys {
				t.Fatalf("queries wrote the dictionary: tokens %d -> %d, keys %d -> %d", size, dict.Size(), keys, dict.Keys().Size())
			}
		})
	}
}

// TestConcurrentNovelQueriesAndWriters is the -race test of the rule that
// orders every dictionary write: queries only read the dictionary, so they
// run under the engine's read lock while Add, Update, Delete, Compact and
// SaveCollection write it (or read it whole) under the write lock or beside
// other readers. Readers search, batch, discover against references and
// Compare with sets holding words and q-grams the collection never had;
// every call must succeed, no match may name a slot past the ones handed
// out, and Compare, which never touches the engine, must keep its answer.
func TestConcurrentNovelQueriesAndWriters(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range novelConfigs {
		cfg.Shards, cfg.Concurrency, cfg.CompactionThreshold = 2, 2, 0.1
		t.Run(cfg.Similarity.String(), func(t *testing.T) {
			corpus := autoGridCorpus(137, 60)
			base, extra := corpus[:40], corpus[40:]
			eng, err := NewEngine(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			queries := novelQueries(corpus, 6)
			batch := make([]BatchQuery, len(queries))
			for i, q := range queries {
				batch[i].Set = q
			}
			compared := make([]float64, len(queries))
			for i, q := range queries {
				if compared[i], err = Compare(q, corpus[i], cfg); err != nil {
					t.Fatal(err)
				}
			}
			maxSlots := 2 * len(corpus)
			inRange := func(ms []Match) error {
				for _, m := range ms {
					if m.Index < 0 || m.Index >= maxSlots {
						return fmt.Errorf("match index %d out of range (%d slots)", m.Index, maxSlots)
					}
				}
				return nil
			}

			// Readers keep going until the writer is done, so every write
			// overlaps reads.
			done := make(chan struct{})
			writing := func() bool {
				select {
				case <-done:
					return false
				default:
					return true
				}
			}
			var wg sync.WaitGroup
			errc := make(chan error, 16)
			run := func(f func() error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := f(); err != nil {
						errc <- err
					}
				}()
			}
			run(func() error { // writer
				defer close(done)
				for i := 0; i < len(base); i += 2 {
					var err error
					switch i % 4 {
					case 0:
						err = eng.Delete(i)
					case 2:
						_, err = eng.Update(i, Set{Name: base[i].Name + "+v2", Elements: queries[i%len(queries)].Elements})
					}
					if err != nil {
						return err
					}
					if i%8 == 0 && len(extra) > 0 {
						if err := eng.Add(extra[:2]); err != nil {
							return err
						}
						extra = extra[2:]
					}
					if i%10 == 0 {
						eng.Compact()
					}
				}
				return nil
			})
			run(func() error { // saver
				for i := 0; i < 2 || writing(); i++ {
					if err := eng.SaveCollection(io.Discard); err != nil {
						return err
					}
				}
				return nil
			})
			run(func() error { // searcher and batcher
				for i := 0; i < 2 || writing(); i++ {
					ms, err := eng.SearchContext(ctx, queries[i%len(queries)])
					if err == nil {
						err = inRange(ms)
					}
					if err != nil {
						return err
					}
					res, err := eng.SearchBatchQueriesContext(ctx, batch)
					if err != nil {
						return err
					}
					for _, r := range res {
						if err := inRange(r.Matches); err != nil {
							return err
						}
					}
				}
				return nil
			})
			run(func() error { // discoverer
				for i := 0; i < 2 || writing(); i++ {
					ps, err := eng.DiscoverAgainstContext(ctx, queries)
					if err != nil {
						return err
					}
					for _, p := range ps {
						if p.S < 0 || p.S >= maxSlots || p.R < 0 || p.R >= len(queries) {
							return fmt.Errorf("discover-against pair (%d, %d) out of range", p.R, p.S)
						}
					}
				}
				return nil
			})
			run(func() error { // comparer
				for i := 0; i < 2 || writing(); i++ {
					for j, q := range queries {
						rel, err := Compare(q, corpus[j], cfg)
						if err != nil {
							return err
						}
						if rel != compared[j] {
							return fmt.Errorf("Compare(Q%d, S%d) = %v, %v before the writers ran", j, j, rel, compared[j])
						}
					}
				}
				return nil
			})
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			// Settled: the engine saves and reloads to the same answers.
			var buf bytes.Buffer
			if err := eng.SaveCollection(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := NewEngineFromSaved(&buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				got, err := eng.SearchContext(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := loaded.SearchContext(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, fmt.Sprintf("settled query %d", i), got, want)
			}
		})
	}
}
