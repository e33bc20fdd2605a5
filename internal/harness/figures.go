package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/signature"
)

// DeltaSweep is the relatedness threshold axis of Figures 5-9.
var DeltaSweep = []float64{0.7, 0.75, 0.8, 0.85}

// AlphaSweepString is the similarity threshold axis of Figure 8b.
var AlphaSweepString = []float64{0.7, 0.75, 0.8, 0.85}

// ScaleSweep multiplies the base corpus size in Figure 9.
var ScaleSweep = []float64{0.25, 0.5, 1, 2}

// Figures lists every experiment id RunFigure accepts, in paper order.
var Figures = []string{
	"table3",
	"fig4",
	"fig5a", "fig5b", "fig5c",
	"fig6a", "fig6b", "fig6c",
	"fig7",
	"fig8a", "fig8b",
	"fig9a", "fig9b", "fig9c",
}

// RunFigure regenerates one table/figure of §8 (or "all") at the given
// corpus scale, writing rows to out as they complete and returning them.
func RunFigure(figure string, scale float64, seed int64, out io.Writer) ([]Row, error) {
	if figure == "all" {
		var all []Row
		for _, f := range Figures {
			rows, err := RunFigure(f, scale, seed, out)
			if err != nil {
				return all, err
			}
			all = append(all, rows...)
		}
		return all, nil
	}
	switch figure {
	case "table3":
		return runTable3(scale, seed, out)
	case "fig4":
		return runFig4(scale, seed, out)
	case "fig5a":
		return runFig5(StringMatching, DefaultAlphaString, scale, seed, "fig5a", out)
	case "fig5b":
		return runFig5(SchemaMatching, DefaultAlphaSchema, scale, seed, "fig5b", out)
	case "fig5c":
		return runFig5(InclusionDependency, DefaultAlphaInclusion, scale, seed, "fig5c", out)
	case "fig6a":
		return runFig6(StringMatching, DefaultAlphaString, scale, seed, "fig6a", out)
	case "fig6b":
		return runFig6(SchemaMatching, DefaultAlphaSchema, scale, seed, "fig6b", out)
	case "fig6c":
		return runFig6(InclusionDependency, DefaultAlphaInclusion, scale, seed, "fig6c", out)
	case "fig7":
		return runFig7(scale, seed, out)
	case "fig8a":
		return runFig8a(scale, seed, out)
	case "fig8b":
		return runFig8b(scale, seed, out)
	case "fig9a":
		return runFig9(StringMatching, DefaultAlphaString, scale, seed, "fig9a", out)
	case "fig9b":
		return runFig9(SchemaMatching, DefaultAlphaSchema, scale, seed, "fig9b", out)
	case "fig9c":
		return runFig9(InclusionDependency, DefaultAlphaInclusion, scale, seed, "fig9c", out)
	default:
		return nil, fmt.Errorf("harness: unknown figure %q (have %v)", figure, Figures)
	}
}

// emit writes and collects one row.
func emit(out io.Writer, rows *[]Row, r Row) {
	if out != nil {
		r.Write(out)
	}
	*rows = append(*rows, r)
}

// runTable3 reports dataset statistics in the shape of the paper's Table 3.
func runTable3(scale float64, seed int64, out io.Writer) ([]Row, error) {
	type entry struct {
		app   App
		delta float64
		alpha float64
	}
	entries := []entry{
		{StringMatching, DefaultDeltaString, DefaultAlphaString},
		{SchemaMatching, DefaultDeltaSchema, DefaultAlphaSchema},
		{InclusionDependency, DefaultDeltaInclusion, DefaultAlphaInclusion},
	}
	var rows []Row
	for _, e := range entries {
		before := heapInUse()
		w := BuildWorkload(e.app, scale, e.delta, e.alpha, seed)
		ix := w.Index
		if ix == nil {
			ix = index.Build(w.Coll)
		}
		after := heapInUse()
		st := dataset.ComputeStats(w.Coll)
		if out != nil {
			fmt.Fprintf(out, "table3   %-22s %s postings=%d mem≈%.1fMB\n",
				e.app.String(), st.String(), ix.TotalPostings(),
				float64(after-before)/(1<<20))
		}
		rows = append(rows, Row{
			Figure: "table3", App: e.app.String(), Variant: "stats",
			Delta: e.delta, Alpha: e.alpha, Sets: st.NumSets,
		})
	}
	return rows, nil
}

// heapInUse samples live heap bytes after a GC, approximating the paper's
// §8.1 memory consumption report (dominated by the dataset and the index).
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// runFig4 compares NOOPT (FastJoin-style signature, no refinement, no
// reduction) against OPT (full SilkMoth) on all three applications.
func runFig4(scale float64, seed int64, out io.Writer) ([]Row, error) {
	type entry struct {
		app   App
		delta float64
		alpha float64
	}
	entries := []entry{
		{StringMatching, DefaultDeltaString, DefaultAlphaString},
		{SchemaMatching, DefaultDeltaSchema, DefaultAlphaSchema},
		{InclusionDependency, DefaultDeltaInclusion, DefaultAlphaInclusion},
	}
	var rows []Row
	for _, e := range entries {
		w := BuildWorkload(e.app, scale, e.delta, e.alpha, seed)
		noopt := core.FastJoinOptions(w.Base.Metric, w.Base.Sim, e.delta, e.alpha)
		emit(out, &rows, RunConfig(w, noopt, VariantNoOpt, "fig4"))
		opt := core.DefaultOptions(w.Base.Metric, w.Base.Sim, e.delta, e.alpha)
		emit(out, &rows, RunConfig(w, opt, VariantOpt, "fig4"))
	}
	return rows, nil
}

// runFig5 sweeps the four signature schemes over δ with refinement filters
// and reduction disabled, isolating signature selectivity (§8.2).
func runFig5(app App, alpha float64, scale float64, seed int64, figure string, out io.Writer) ([]Row, error) {
	var rows []Row
	for _, delta := range DeltaSweep {
		w := BuildWorkload(app, scale, delta, alpha, seed)
		for _, scheme := range []signature.Kind{
			signature.Weighted, signature.CombUnweighted, signature.Skyline, signature.Dichotomy,
		} {
			opts := core.Options{
				Delta: delta, Alpha: alpha, Scheme: scheme,
				CheckFilter: false, NNFilter: false, Reduction: false,
			}
			emit(out, &rows, RunConfig(w, opts, schemeVariant(scheme), figure))
		}
	}
	return rows, nil
}

// runFig6 sweeps the refinement filters over δ with the dichotomy signature
// and no reduction (§8.3).
func runFig6(app App, alpha float64, scale float64, seed int64, figure string, out io.Writer) ([]Row, error) {
	var rows []Row
	for _, delta := range DeltaSweep {
		w := BuildWorkload(app, scale, delta, alpha, seed)
		variants := []struct {
			name      string
			check, nn bool
		}{
			{VariantNoFilter, false, false},
			{VariantCheck, true, false},
			{VariantNN, true, true},
		}
		for _, v := range variants {
			opts := core.Options{
				Delta: delta, Alpha: alpha, Scheme: signature.Dichotomy,
				CheckFilter: v.check, NNFilter: v.nn, Reduction: false,
			}
			emit(out, &rows, RunConfig(w, opts, v.name, figure))
		}
	}
	return rows, nil
}

// runFig7 measures reduction-based verification on the inclusion dependency
// application at α = 0, using only reference sets with at least 100
// elements (§8.4).
func runFig7(scale float64, seed int64, out io.Writer) ([]Row, error) {
	var rows []Row
	for _, delta := range DeltaSweep {
		w := BuildWorkload(InclusionDependency, scale, delta, 0, seed)
		w = RefsFromLargeSets(w, 100, 50)
		for _, reduction := range []bool{false, true} {
			name := VariantNoRed
			if reduction {
				name = VariantRed
			}
			opts := core.Options{
				Delta: delta, Alpha: 0, Scheme: signature.Dichotomy,
				CheckFilter: true, NNFilter: true, Reduction: reduction,
			}
			emit(out, &rows, RunConfig(w, opts, name, "fig7"))
		}
	}
	return rows, nil
}

// RefsFromLargeSets replaces a search workload's references with up to max
// collection sets of at least minElems elements (Figure 7 uses ≥ 100).
func RefsFromLargeSets(w Workload, minElems, max int) Workload {
	sets := w.Coll.Sets
	var kept []int
	for i := range sets {
		if len(sets[i].Elements) >= minElems {
			kept = append(kept, i)
			if len(kept) == max {
				break
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool { return sets[kept[i]].Name < sets[kept[j]].Name })
	w.Refs = w.Coll.Subset(kept)
	w.SelfJoin = false
	return w
}

// runFig8a compares full SilkMoth against the FastJoin-style baseline on
// string matching over δ at α = 0.8 (§8.5).
func runFig8a(scale float64, seed int64, out io.Writer) ([]Row, error) {
	var rows []Row
	for _, delta := range DeltaSweep {
		w := BuildWorkload(StringMatching, scale, delta, DefaultAlphaString, seed)
		sm := core.DefaultOptions(w.Base.Metric, w.Base.Sim, delta, DefaultAlphaString)
		emit(out, &rows, RunConfig(w, sm, VariantSilkmoth, "fig8a"))
		fj := core.FastJoinOptions(w.Base.Metric, w.Base.Sim, delta, DefaultAlphaString)
		emit(out, &rows, RunConfig(w, fj, VariantFastJoin, "fig8a"))
	}
	return rows, nil
}

// runFig8b compares the same two systems over α at δ = 0.8; each α
// retokenizes the corpus with its own maximal sound q (footnote 11).
func runFig8b(scale float64, seed int64, out io.Writer) ([]Row, error) {
	const delta = 0.8
	var rows []Row
	for _, alpha := range AlphaSweepString {
		w := BuildWorkload(StringMatching, scale, delta, alpha, seed)
		sm := core.DefaultOptions(w.Base.Metric, w.Base.Sim, delta, alpha)
		emit(out, &rows, RunConfig(w, sm, VariantSilkmoth, "fig8b"))
		fj := core.FastJoinOptions(w.Base.Metric, w.Base.Sim, delta, alpha)
		emit(out, &rows, RunConfig(w, fj, VariantFastJoin, "fig8b"))
	}
	return rows, nil
}

// runFig9 measures scalability: full SilkMoth over growing corpus sizes for
// each δ (§8.6).
func runFig9(app App, alpha float64, scale float64, seed int64, figure string, out io.Writer) ([]Row, error) {
	var rows []Row
	for _, mult := range ScaleSweep {
		for _, delta := range DeltaSweep {
			w := BuildWorkload(app, scale*mult, delta, alpha, seed)
			opts := core.DefaultOptions(w.Base.Metric, w.Base.Sim, delta, alpha)
			emit(out, &rows, RunConfig(w, opts, VariantSilkmoth, figure))
		}
	}
	return rows, nil
}
