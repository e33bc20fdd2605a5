package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"silkmoth/internal/core"
)

// Row is one measured cell of a figure: a variant at one parameter point.
type Row struct {
	Figure  string
	App     string
	Variant string
	Delta   float64
	Alpha   float64
	Sets    int
	// TimeSec is the run's wall time, the paper's y-axis; every other
	// column repeats exactly for a scale and seed.
	TimeSec float64
	// Funnel counters, cumulative over all search passes of the run.
	Candidates int64
	AfterCheck int64
	AfterNN    int64
	Verified   int64
	// SimCalls is the φ_α kernel calls the filters asked for, memo hits
	// included: a pass split into chunks divides the two differently (each
	// chunk's worker has its own memo), never their sum.
	SimCalls int64
	Results  int
}

// runConfig executes one workload under one engine configuration and
// returns its measured row. Discovery runs time index building plus the
// discovery pass (as the paper does); search runs reuse the prebuilt index
// and time only the passes.
func runConfig(w workload, opts core.Options, variant, figure string) Row {
	opts.Metric = w.base.Metric
	opts.Sim = w.base.Sim
	opts.Q = w.base.Q
	if opts.Concurrency == 0 {
		opts.Concurrency = runtime.GOMAXPROCS(0)
	}

	row := Row{
		Figure:  figure,
		App:     w.app.String(),
		Variant: variant,
		Delta:   opts.Delta,
		Alpha:   opts.Alpha,
		Sets:    len(w.coll.Sets),
	}

	var eng *core.Engine
	var err error
	start := time.Now()
	if w.search {
		eng, err = core.NewEngineFromIndex(w.index, opts)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		start = time.Now() // exclude index build for search mode
		results := 0
		for i := range w.refs.Sets {
			ms, serr := eng.SearchContext(context.Background(), &w.refs.Sets[i])
			if serr != nil {
				panic(fmt.Sprintf("harness: %v", serr))
			}
			results += len(ms)
		}
		row.Results = results
	} else {
		eng, err = core.NewEngine(w.coll, opts)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		ps, derr := eng.DiscoverQueryContext(context.Background(), w.refs, nil, 1)
		if derr != nil {
			panic(fmt.Sprintf("harness: %v", derr))
		}
		row.Results = len(ps)
	}
	row.TimeSec = time.Since(start).Seconds()

	st := eng.Stats()
	row.Candidates = st.Candidates
	row.AfterCheck = st.AfterCheck
	row.AfterNN = st.AfterNN
	row.Verified = st.Verified
	row.SimCalls = st.SimEvals + st.SimMemoHits
	return row
}

// WriteHeader prints the aligned column header for result rows.
func WriteHeader(out io.Writer) {
	fmt.Fprintf(out, "%-8s %-22s %-16s %6s %6s %9s %10s %11s %11s %9s %9s %8s %10s\n",
		"figure", "app", "variant", "delta", "alpha", "sets",
		"cands", "afterCheck", "afterNN", "verified", "simCalls", "results", "time(s)")
}

// Write prints one row aligned under WriteHeader.
func (r Row) Write(out io.Writer) {
	fmt.Fprintf(out, "%-8s %-22s %-16s %6.2f %6.2f %9d %10d %11d %11d %9d %9d %8d %10.3f\n",
		r.Figure, r.App, r.Variant, r.Delta, r.Alpha, r.Sets,
		r.Candidates, r.AfterCheck, r.AfterNN, r.Verified, r.SimCalls, r.Results, r.TimeSec)
}
