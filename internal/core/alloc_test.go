package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/raceflag"
	"silkmoth/internal/signature"
	"silkmoth/internal/tokens"
)

// skipUnderRace skips allocation pins in race builds: the instrumentation
// itself allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
}

// allocFixture builds a word-mode collection big enough that a query
// touches many candidates, so any per-candidate or per-pair allocation
// would show up multiplied in the AllocsPerRun counts.
func allocFixture(t testing.TB, scheme signature.Kind) (*Engine, *dataset.Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 120)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%03d", i)
	}
	raws := make([]dataset.RawSet, 300)
	for i := range raws {
		ne := 3 + rng.Intn(5)
		elems := make([]string, ne)
		for j := range elems {
			nw := 2 + rng.Intn(4)
			ws := make([]byte, 0, 32)
			for k := 0; k < nw; k++ {
				if k > 0 {
					ws = append(ws, ' ')
				}
				ws = append(ws, vocab[rng.Intn(len(vocab))]...)
			}
			elems[j] = string(ws)
		}
		raws[i] = dataset.RawSet{Name: fmt.Sprintf("s%d", i), Elements: elems}
	}
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, raws)
	opts := DefaultOptions(SetSimilarity, Jaccard, 0.5, 0.3)
	opts.Scheme = scheme
	e, err := NewEngine(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, &coll.Sets[7]
}

// TestSearchAllocs pins the steady-state allocation budget of one search
// pass on a reused Searcher: the hot path must allocate only the result
// slice (O(1) amortized per query), never per candidate or per verified
// pair. If this number regresses, scratch reuse broke somewhere in the
// signature → collect → refine → verify pipeline.
func TestSearchAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, scheme := range []signature.Kind{signature.Dichotomy, signature.Auto} {
		t.Run(scheme.String(), func(t *testing.T) {
			e, ref := allocFixture(t, scheme)
			sr := e.NewSearcher()
			defer sr.Close()
			ctx := context.Background()
			// Warm the scratch arenas.
			for i := 0; i < 3; i++ {
				if _, err := sr.Search(ctx, ref, -1); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(200, func() {
				if _, err := sr.Search(ctx, ref, -1); err != nil {
					t.Fatal(err)
				}
			})
			const budget = 8
			if got > budget {
				t.Fatalf("steady-state Search allocates %.1f objects/query, budget %d", got, budget)
			}
			t.Logf("allocs/query = %.2f", got)
		})
	}
}

// TestSearchContextAllocs pins the pooled top-level SearchContext path,
// which draws its worker from the engine pool per call.
func TestSearchContextAllocs(t *testing.T) {
	skipUnderRace(t)
	e, ref := allocFixture(t, signature.Dichotomy)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.SearchContext(ctx, ref); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := e.SearchContext(ctx, ref); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 10
	if got > budget {
		t.Fatalf("steady-state SearchContext allocates %.1f objects/query, budget %d", got, budget)
	}
	t.Logf("allocs/query = %.2f", got)
}

// TestVerifyAllocs pins exact verification alone: with a reused scratch,
// computing |R ∩̃ S| must not allocate at all — with the dense kernel fill
// (the oracle's and MatchScore's) and with the pipeline's fill from index
// overlap counts, reduction on and off.
func TestVerifyAllocs(t *testing.T) {
	skipUnderRace(t)
	e, ref := allocFixture(t, signature.Dichotomy)
	w := e.newWorker()
	if w.vs.os.fromOverlap == nil {
		t.Fatal("a Jaccard engine's worker does not verify from overlap counts")
	}
	for _, reduction := range []bool{false, true} {
		o := e.opts
		o.Reduction = reduction
		var dense verifyScratch // as the brute-force oracle's
		for _, vs := range []*verifyScratch{&dense, &w.vs} {
			pair := func() { e.verifyWith(ref, 11, vs, &o) }
			pair() // warm the scratch
			if got := testing.AllocsPerRun(500, pair); got > 0 {
				t.Errorf("steady-state verification (reduction=%v, from overlap counts=%v) allocates %.1f objects/pair, want 0",
					reduction, vs == &w.vs, got)
			}
		}
	}
}
