package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/signature"
)

// deltaSweep is the relatedness threshold axis of Figures 5-9.
var deltaSweep = []float64{0.7, 0.75, 0.8, 0.85}

// alphaSweepString is the similarity threshold axis of Figure 8b.
var alphaSweepString = []float64{0.7, 0.75, 0.8, 0.85}

// scaleSweep multiplies the base corpus size in Figure 9.
var scaleSweep = []float64{0.25, 0.5, 1, 2}

// figure is one table or figure of §8: the applications it builds, the
// smallest multiple of the scale it builds them at, and its sweep, which
// reports every row to rs.
type figure struct {
	id       string
	apps     []app
	minScale float64
	run      func(f figure, scale float64, seed int64, rs *rowSink)
}

// figures is every experiment RunFigure runs, in paper order. A figure of
// one application sweeps apps[0].
var figures = []figure{
	{"table3", allApps, 1, runTable3},
	{"fig4", allApps, 1, runFig4},
	{"fig5a", []app{stringMatching}, 1, runFig5},
	{"fig5b", []app{schemaMatching}, 1, runFig5},
	{"fig5c", []app{inclusionDependency}, 1, runFig5},
	{"fig6a", []app{stringMatching}, 1, runFig6},
	{"fig6b", []app{schemaMatching}, 1, runFig6},
	{"fig6c", []app{inclusionDependency}, 1, runFig6},
	{"fig7", []app{inclusionDependency}, 1, runFig7},
	{"fig8a", []app{stringMatching}, 1, runFig8a},
	{"fig8b", []app{stringMatching}, 1, runFig8b},
	{"fig9a", []app{stringMatching}, scaleSweep[0], runFig9},
	{"fig9b", []app{schemaMatching}, scaleSweep[0], runFig9},
	{"fig9c", []app{inclusionDependency}, scaleSweep[0], runFig9},
}

// Figures lists every experiment id RunFigure accepts, in paper order.
var Figures = func() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}()

// RunFigure regenerates one table/figure of §8 (or "all") at the given
// corpus scale, writing rows to out as they complete and returning them.
// It runs nothing when the scale is not a positive finite number or gives
// a figure it would run an empty corpus.
func RunFigure(id string, scale float64, seed int64, out io.Writer) ([]Row, error) {
	run := figures
	if id != "all" {
		run = nil
		for _, f := range figures {
			if f.id == id {
				run = []figure{f}
			}
		}
		if run == nil {
			return nil, fmt.Errorf("harness: unknown figure %q (have %v)", id, Figures)
		}
	}
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
		return nil, fmt.Errorf("harness: scale %v is not a positive number", scale)
	}
	for _, f := range run {
		for _, a := range f.apps {
			if corpusSize(a, scale*f.minScale) == 0 {
				return nil, fmt.Errorf("harness: scale %v gives %s an empty %s corpus", scale, f.id, a)
			}
		}
	}
	rs := &rowSink{out: out}
	for _, f := range run {
		f.run(f, scale, seed, rs)
	}
	return rs.rows, nil
}

// rowSink collects a run's rows, writing each to out (when set) as it
// completes.
type rowSink struct {
	out  io.Writer
	rows []Row
}

func (rs *rowSink) emit(r Row) {
	if rs.out != nil {
		r.Write(rs.out)
	}
	rs.rows = append(rs.rows, r)
}

// runTable3 reports dataset statistics in the shape of the paper's Table 3.
func runTable3(f figure, scale float64, seed int64, rs *rowSink) {
	for _, a := range f.apps {
		w := buildWorkload(a, scale, defaultDelta, defaultAlpha[a], seed)
		ix := w.index
		if ix == nil {
			ix = index.Build(w.coll)
		}
		st := dataset.ComputeStats(w.coll)
		if rs.out != nil {
			fmt.Fprintf(rs.out, "table3   %-22s %s postings=%d\n", a, st.String(), ix.TotalPostings())
		}
		rs.rows = append(rs.rows, Row{
			Figure: f.id, App: a.String(), Variant: "stats",
			Delta: defaultDelta, Alpha: defaultAlpha[a], Sets: st.NumSets,
		})
	}
}

// runFig4 compares NOOPT (FastJoin-style signature, no refinement, no
// reduction) against OPT (full SilkMoth) on all three applications.
func runFig4(f figure, scale float64, seed int64, rs *rowSink) {
	for _, a := range f.apps {
		delta, alpha := defaultDelta, defaultAlpha[a]
		w := buildWorkload(a, scale, delta, alpha, seed)
		noopt := core.FastJoinOptions(w.base.Metric, w.base.Sim, delta, alpha)
		rs.emit(runConfig(w, noopt, variantNoOpt, f.id))
		opt := core.DefaultOptions(w.base.Metric, w.base.Sim, delta, alpha)
		rs.emit(runConfig(w, opt, variantOpt, f.id))
	}
}

// runFig5 sweeps the four signature schemes over δ with refinement filters
// and reduction disabled, isolating signature selectivity (§8.2).
func runFig5(f figure, scale float64, seed int64, rs *rowSink) {
	a := f.apps[0]
	alpha := defaultAlpha[a]
	for _, delta := range deltaSweep {
		w := buildWorkload(a, scale, delta, alpha, seed)
		for _, scheme := range []signature.Kind{
			signature.Weighted, signature.CombUnweighted, signature.Skyline, signature.Dichotomy,
		} {
			opts := core.Options{Delta: delta, Alpha: alpha, Scheme: scheme}
			rs.emit(runConfig(w, opts, scheme.String(), f.id))
		}
	}
}

// runFig6 sweeps the refinement filters over δ with the dichotomy signature
// and no reduction (§8.3).
func runFig6(f figure, scale float64, seed int64, rs *rowSink) {
	a := f.apps[0]
	alpha := defaultAlpha[a]
	for _, delta := range deltaSweep {
		w := buildWorkload(a, scale, delta, alpha, seed)
		for _, v := range []struct {
			name      string
			check, nn bool
		}{
			{variantNoFilter, false, false},
			{variantCheck, true, false},
			{variantNN, true, true},
		} {
			opts := core.Options{
				Delta: delta, Alpha: alpha, Scheme: signature.Dichotomy,
				CheckFilter: v.check, NNFilter: v.nn,
			}
			rs.emit(runConfig(w, opts, v.name, f.id))
		}
	}
}

// runFig7 measures reduction-based verification on the inclusion dependency
// application at α = 0, using only reference sets with at least 100
// elements (§8.4).
func runFig7(f figure, scale float64, seed int64, rs *rowSink) {
	for _, delta := range deltaSweep {
		w := buildWorkload(f.apps[0], scale, delta, 0, seed)
		w.refs = refsFromLargeSets(w.coll, 100, 50)
		for _, reduction := range []bool{false, true} {
			name := variantNoRed
			if reduction {
				name = variantRed
			}
			opts := core.Options{
				Delta: delta, Alpha: 0, Scheme: signature.Dichotomy,
				CheckFilter: true, NNFilter: true, Reduction: reduction,
			}
			rs.emit(runConfig(w, opts, name, f.id))
		}
	}
}

// refsFromLargeSets returns up to max of coll's sets with at least
// minElems elements, in name order (Figure 7 uses ≥ 100).
func refsFromLargeSets(coll *dataset.Collection, minElems, max int) *dataset.Collection {
	sets := coll.Sets
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
	return coll.Subset(kept)
}

// runFig8a compares full SilkMoth against the FastJoin-style baseline on
// string matching over δ at α = 0.8 (§8.5).
func runFig8a(f figure, scale float64, seed int64, rs *rowSink) {
	alpha := defaultAlpha[f.apps[0]]
	for _, delta := range deltaSweep {
		runVersusFastJoin(f, buildWorkload(f.apps[0], scale, delta, alpha, seed), delta, alpha, rs)
	}
}

// runFig8b compares the same two systems over α at δ = 0.8; each α
// retokenizes the corpus with its own maximal sound q (footnote 11).
func runFig8b(f figure, scale float64, seed int64, rs *rowSink) {
	const delta = 0.8
	for _, alpha := range alphaSweepString {
		runVersusFastJoin(f, buildWorkload(f.apps[0], scale, delta, alpha, seed), delta, alpha, rs)
	}
}

// runVersusFastJoin reports full SilkMoth's row and the FastJoin-style
// baseline's on w at one (δ, α).
func runVersusFastJoin(f figure, w workload, delta, alpha float64, rs *rowSink) {
	sm := core.DefaultOptions(w.base.Metric, w.base.Sim, delta, alpha)
	rs.emit(runConfig(w, sm, variantSilkmoth, f.id))
	fj := core.FastJoinOptions(w.base.Metric, w.base.Sim, delta, alpha)
	rs.emit(runConfig(w, fj, variantFastJoin, f.id))
}

// runFig9 measures scalability: full SilkMoth over growing corpus sizes for
// each δ (§8.6).
func runFig9(f figure, scale float64, seed int64, rs *rowSink) {
	a := f.apps[0]
	alpha := defaultAlpha[a]
	for _, mult := range scaleSweep {
		for _, delta := range deltaSweep {
			w := buildWorkload(a, scale*mult, delta, alpha, seed)
			opts := core.DefaultOptions(w.base.Metric, w.base.Sim, delta, alpha)
			rs.emit(runConfig(w, opts, variantSilkmoth, f.id))
		}
	}
}
