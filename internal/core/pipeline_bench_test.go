package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"silkmoth/internal/dataset"
	"silkmoth/internal/signature"
	"silkmoth/internal/tokens"
)

// benchFixture builds the pipeline benchmark corpus: word-mode, heavy token
// overlap, sizes chosen so a pass exercises every stage (signature,
// collect, check filter, NN filter, verify) without dwarfing the -benchmem
// signal with matching time.
func benchFixture(b *testing.B, scheme signature.Kind, alpha float64) (*Engine, *dataset.Set) {
	b.Helper()
	rng := rand.New(rand.NewSource(1234))
	raws := make([]dataset.RawSet, 500)
	for i := range raws {
		ne := 3 + rng.Intn(5)
		elems := make([]string, ne)
		for j := range elems {
			nw := 2 + rng.Intn(4)
			s := ""
			for k := 0; k < nw; k++ {
				if k > 0 {
					s += " "
				}
				s += fmt.Sprintf("w%03d", rng.Intn(150))
			}
			elems[j] = s
		}
		raws[i] = dataset.RawSet{Name: fmt.Sprintf("s%d", i), Elements: elems}
	}
	dict := tokens.NewDictionary()
	coll := dataset.BuildWord(dict, raws)
	opts := DefaultOptions(SetSimilarity, Jaccard, 0.5, alpha)
	opts.Scheme = scheme
	e, err := NewEngine(coll, opts)
	if err != nil {
		b.Fatal(err)
	}
	return e, &coll.Sets[7]
}

// BenchmarkPipelineSearch is the per-query hot path benchmark: one full
// search pass on a reused Searcher. allocs/op is the load-bearing number — steady state must stay
// O(1) per query.
func BenchmarkPipelineSearch(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		scheme signature.Kind
		alpha  float64
	}{
		{"dichotomy", signature.Dichotomy, 0.3},
		{"auto", signature.Auto, 0.3},
		{"alpha0", signature.Dichotomy, 0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			e, ref := benchFixture(b, cfg.scheme, cfg.alpha)
			sr := e.NewSearcher()
			defer sr.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sr.Search(ctx, ref, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineVerify isolates exact verification (reduction on): the
// per-pair cost every candidate that survives refinement pays, on a
// worker's scratch as the pipeline runs it.
func BenchmarkPipelineVerify(b *testing.B) {
	e, ref := benchFixture(b, signature.Dichotomy, 0)
	w := e.newWorker()
	rdir, _ := e.coll.LookupEntries(nil, ref, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.verifyWith(ref, rdir, 11, &w.vs, &e.opts)
	}
}

// BenchmarkPipelineDiscover runs the full self-join, the throughput shape
// production batch workloads take.
func BenchmarkPipelineDiscover(b *testing.B) {
	e, _ := benchFixture(b, signature.Dichotomy, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discover(e, e.coll)
	}
}
