// Benchmarks regenerating every table and figure of the paper's evaluation
// (§8) at reduced scale: one benchmark per table/figure, with one
// sub-benchmark per (variant, parameter) cell, so `go test -bench=.`
// reproduces the relative shapes the paper reports — which scheme/filter
// wins, by roughly what factor, and where the crossovers fall. Run
// cmd/experiments for bigger corpora and the full funnel columns.
package silkmoth_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"silkmoth"
	"silkmoth/internal/core"
	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/harness"
	"silkmoth/internal/server"
	"silkmoth/internal/signature"
)

// benchScale keeps each cell in the tens-of-milliseconds range; shapes, not
// absolute numbers, are the point.
const benchScale = 0.15

const benchSeed = 1

// benchCell runs one workload configuration b.N times.
func benchCell(b *testing.B, w harness.Workload, opts core.Options, variant string) {
	b.Helper()
	b.ReportAllocs()
	var results int
	for i := 0; i < b.N; i++ {
		row := harness.RunConfig(w, opts, variant, "bench")
		results = row.Results
	}
	b.ReportMetric(float64(results), "results")
}

// BenchmarkTable3Datasets measures corpus construction and tokenization for
// the three applications (the paper's Table 3 datasets).
func BenchmarkTable3Datasets(b *testing.B) {
	apps := []struct {
		app          harness.App
		delta, alpha float64
	}{
		{harness.StringMatching, harness.DefaultDeltaString, harness.DefaultAlphaString},
		{harness.SchemaMatching, harness.DefaultDeltaSchema, harness.DefaultAlphaSchema},
		{harness.InclusionDependency, harness.DefaultDeltaInclusion, harness.DefaultAlphaInclusion},
	}
	for _, a := range apps {
		b.Run(a.app.String(), func(b *testing.B) {
			b.ReportAllocs()
			var sets int
			for i := 0; i < b.N; i++ {
				w := harness.BuildWorkload(a.app, benchScale, a.delta, a.alpha, benchSeed)
				sets = len(w.Coll.Sets)
				_ = dataset.ComputeStats(w.Coll)
			}
			b.ReportMetric(float64(sets), "sets")
		})
	}
}

// BenchmarkFigure4Overall compares NOOPT (FastJoin-style signature, no
// refinement, no reduction) against full-optimization SilkMoth on all three
// applications (Figure 4).
func BenchmarkFigure4Overall(b *testing.B) {
	apps := []struct {
		app          harness.App
		delta, alpha float64
	}{
		{harness.StringMatching, harness.DefaultDeltaString, harness.DefaultAlphaString},
		{harness.SchemaMatching, harness.DefaultDeltaSchema, harness.DefaultAlphaSchema},
		{harness.InclusionDependency, harness.DefaultDeltaInclusion, harness.DefaultAlphaInclusion},
	}
	for _, a := range apps {
		w := harness.BuildWorkload(a.app, benchScale, a.delta, a.alpha, benchSeed)
		b.Run(a.app.String()+"/NOOPT", func(b *testing.B) {
			benchCell(b, w, core.FastJoinOptions(w.Base.Metric, w.Base.Sim, a.delta, a.alpha), harness.VariantNoOpt)
		})
		b.Run(a.app.String()+"/OPT", func(b *testing.B) {
			benchCell(b, w, core.DefaultOptions(w.Base.Metric, w.Base.Sim, a.delta, a.alpha), harness.VariantOpt)
		})
	}
}

// benchFigure5 sweeps signature schemes over δ (filters and reduction off).
func benchFigure5(b *testing.B, app harness.App, alpha float64) {
	for _, delta := range harness.DeltaSweep {
		w := harness.BuildWorkload(app, benchScale, delta, alpha, benchSeed)
		for _, scheme := range []signature.Kind{
			signature.Weighted, signature.CombUnweighted, signature.Skyline, signature.Dichotomy,
		} {
			opts := core.Options{Delta: delta, Alpha: alpha, Scheme: scheme}
			b.Run(fmt.Sprintf("%s/delta=%.2f", scheme, delta), func(b *testing.B) {
				benchCell(b, w, opts, scheme.String())
			})
		}
	}
}

func BenchmarkFigure5aSchemesString(b *testing.B) {
	benchFigure5(b, harness.StringMatching, harness.DefaultAlphaString)
}

func BenchmarkFigure5bSchemesSchema(b *testing.B) {
	benchFigure5(b, harness.SchemaMatching, harness.DefaultAlphaSchema)
}

func BenchmarkFigure5cSchemesInclusion(b *testing.B) {
	benchFigure5(b, harness.InclusionDependency, harness.DefaultAlphaInclusion)
}

// benchFigure6 sweeps the refinement filters over δ (dichotomy signature,
// no reduction).
func benchFigure6(b *testing.B, app harness.App, alpha float64) {
	variants := []struct {
		name      string
		check, nn bool
	}{
		{harness.VariantNoFilter, false, false},
		{harness.VariantCheck, true, false},
		{harness.VariantNN, true, true},
	}
	for _, delta := range harness.DeltaSweep {
		w := harness.BuildWorkload(app, benchScale, delta, alpha, benchSeed)
		for _, v := range variants {
			opts := core.Options{
				Delta: delta, Alpha: alpha, Scheme: signature.Dichotomy,
				CheckFilter: v.check, NNFilter: v.nn,
			}
			b.Run(fmt.Sprintf("%s/delta=%.2f", v.name, delta), func(b *testing.B) {
				benchCell(b, w, opts, v.name)
			})
		}
	}
}

func BenchmarkFigure6aFiltersString(b *testing.B) {
	benchFigure6(b, harness.StringMatching, harness.DefaultAlphaString)
}

func BenchmarkFigure6bFiltersSchema(b *testing.B) {
	benchFigure6(b, harness.SchemaMatching, harness.DefaultAlphaSchema)
}

func BenchmarkFigure6cFiltersInclusion(b *testing.B) {
	benchFigure6(b, harness.InclusionDependency, harness.DefaultAlphaInclusion)
}

// BenchmarkFigure7Reduction measures reduction-based verification on
// inclusion dependency at α = 0 with ≥100-element references (Figure 7).
func BenchmarkFigure7Reduction(b *testing.B) {
	for _, delta := range harness.DeltaSweep {
		w := harness.BuildWorkload(harness.InclusionDependency, benchScale, delta, 0, benchSeed)
		w = harness.RefsFromLargeSets(w, 100, 25)
		for _, reduction := range []bool{false, true} {
			name := harness.VariantNoRed
			if reduction {
				name = harness.VariantRed
			}
			opts := core.Options{
				Delta: delta, Scheme: signature.Dichotomy,
				CheckFilter: true, NNFilter: true, Reduction: reduction,
			}
			b.Run(fmt.Sprintf("%s/delta=%.2f", name, delta), func(b *testing.B) {
				benchCell(b, w, opts, name)
			})
		}
	}
}

// BenchmarkFigure8aVsFastJoinTheta compares SilkMoth against the
// FastJoin-style baseline on string matching over δ at α = 0.8 (Figure 8a).
func BenchmarkFigure8aVsFastJoinTheta(b *testing.B) {
	for _, delta := range harness.DeltaSweep {
		w := harness.BuildWorkload(harness.StringMatching, benchScale, delta, harness.DefaultAlphaString, benchSeed)
		b.Run(fmt.Sprintf("SILKMOTH/delta=%.2f", delta), func(b *testing.B) {
			benchCell(b, w, core.DefaultOptions(w.Base.Metric, w.Base.Sim, delta, harness.DefaultAlphaString), harness.VariantSilkmoth)
		})
		b.Run(fmt.Sprintf("FASTJOIN/delta=%.2f", delta), func(b *testing.B) {
			benchCell(b, w, core.FastJoinOptions(w.Base.Metric, w.Base.Sim, delta, harness.DefaultAlphaString), harness.VariantFastJoin)
		})
	}
}

// BenchmarkFigure8bVsFastJoinAlpha is the α sweep at δ = 0.8 (Figure 8b);
// each α retokenizes with its own maximal sound q.
func BenchmarkFigure8bVsFastJoinAlpha(b *testing.B) {
	const delta = 0.8
	for _, alpha := range harness.AlphaSweepString {
		w := harness.BuildWorkload(harness.StringMatching, benchScale, delta, alpha, benchSeed)
		b.Run(fmt.Sprintf("SILKMOTH/alpha=%.2f", alpha), func(b *testing.B) {
			benchCell(b, w, core.DefaultOptions(w.Base.Metric, w.Base.Sim, delta, alpha), harness.VariantSilkmoth)
		})
		b.Run(fmt.Sprintf("FASTJOIN/alpha=%.2f", alpha), func(b *testing.B) {
			benchCell(b, w, core.FastJoinOptions(w.Base.Metric, w.Base.Sim, delta, alpha), harness.VariantFastJoin)
		})
	}
}

// benchFigure9 measures scalability over corpus size for each δ.
func benchFigure9(b *testing.B, app harness.App, alpha float64) {
	for _, mult := range []float64{0.5, 1, 2} {
		for _, delta := range []float64{0.7, 0.85} {
			w := harness.BuildWorkload(app, benchScale*mult, delta, alpha, benchSeed)
			opts := core.DefaultOptions(w.Base.Metric, w.Base.Sim, delta, alpha)
			b.Run(fmt.Sprintf("sets=%d/delta=%.2f", len(w.Coll.Sets), delta), func(b *testing.B) {
				benchCell(b, w, opts, harness.VariantSilkmoth)
			})
		}
	}
}

func BenchmarkFigure9aScaleString(b *testing.B) {
	benchFigure9(b, harness.StringMatching, harness.DefaultAlphaString)
}

func BenchmarkFigure9bScaleSchema(b *testing.B) {
	benchFigure9(b, harness.SchemaMatching, harness.DefaultAlphaSchema)
}

func BenchmarkFigure9cScaleInclusion(b *testing.B) {
	benchFigure9(b, harness.InclusionDependency, harness.DefaultAlphaInclusion)
}

// BenchmarkDiscoverParallel measures RELATED SET DISCOVERY at increasing
// worker counts over one schema-matching corpus — the speedup the
// silkmothd serving layer leans on. workers=1 is the serial baseline.
func BenchmarkDiscoverParallel(b *testing.B) {
	w := harness.BuildWorkload(harness.SchemaMatching, 0.5, 0.6, 0, benchSeed)
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		opts := core.DefaultOptions(w.Base.Metric, w.Base.Sim, 0.6, 0)
		opts.Concurrency = workers
		eng, err := core.NewEngine(w.Coll, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var pairs int
			for i := 0; i < b.N; i++ {
				ps, derr := eng.DiscoverQueryContext(context.Background(), w.Coll, nil, 1)
				if derr != nil {
					b.Fatal(derr)
				}
				pairs = len(ps)
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// benchServer builds a silkmothd serving layer over a schema-matching
// corpus for throughput benchmarks.
func benchServer(b *testing.B, cacheSize int) (*server.Server, []string) {
	b.Helper()
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 1500, Seed: benchSeed})
	sets := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		sets[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	cfg := silkmoth.Config{
		Metric:     silkmoth.SetSimilarity,
		Similarity: silkmoth.Jaccard,
		Delta:      0.7,
	}
	eng, err := silkmoth.NewEngine(sets, cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(eng, cfg, server.Options{CacheSize: cacheSize})
	// Pre-marshal a rotating query mix from real corpus sets.
	bodies := make([]string, 64)
	for i := range bodies {
		set := raws[(i*37)%len(raws)]
		var sb strings.Builder
		sb.WriteString(`{"set": {"elements": [`)
		for j, el := range set.Elements {
			if j > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "%q", el)
		}
		sb.WriteString(`]}}`)
		bodies[i] = sb.String()
	}
	return srv, bodies
}

// BenchmarkServerSearchThroughput measures concurrent /v1/search request
// throughput through the full serving stack (JSON decode, worker pool,
// engine query, JSON encode), with the result cache defeated by rotating
// queries — the engine-bound number.
func BenchmarkServerSearchThroughput(b *testing.B) {
	srv, bodies := benchServer(b, -1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			body := bodies[i%len(bodies)]
			i++
			req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Errorf("code %d: %s", w.Code, w.Body)
				return
			}
		}
	})
}

// BenchmarkServerSearchCached measures the cache-hit path: identical
// queries served from the LRU without touching the engine.
func BenchmarkServerSearchCached(b *testing.B) {
	srv, bodies := benchServer(b, 1024)
	// Warm the cache.
	for _, body := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("warm: code %d: %s", w.Code, w.Body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			body := bodies[i%len(bodies)]
			i++
			req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Errorf("code %d: %s", w.Code, w.Body)
				return
			}
		}
	})
}
