// Command experiments regenerates the paper's evaluation tables and figures
// (§8) on the synthetic corpora. Each row reports one variant at one
// parameter point: the candidate funnel (signature → check →
// nearest-neighbor → verified), simCalls (the φ_α kernel calls the filters
// asked for, memo hits included), the result count and wall time. Every
// column but the time repeats exactly for a scale and seed; at -scale 0.05
// -seed 1 they are the rows internal/harness/testdata/figures.golden pins.
// A scale that is not a positive number, or that gives a figure an empty
// corpus, is an error.
//
// Usage:
//
//	experiments -figure all            # every table and figure
//	experiments -figure fig5b          # one figure
//	experiments -figure fig8a -scale 5 # larger corpus (paper ≈ scale 50-170)
//
// Figures: table3, fig4, fig5a-c, fig6a-c, fig7, fig8a-b, fig9a-c.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"silkmoth/internal/harness"
)

func main() {
	var (
		figure = flag.String("figure", "all", "experiment id or 'all': "+strings.Join(harness.Figures, ", "))
		scale  = flag.Float64("scale", 1, "corpus size multiplier (1 ≈ minutes on a laptop)")
		seed   = flag.Int64("seed", 1, "corpus generator seed")
	)
	flag.Parse()

	if err := run(*figure, *scale, *seed, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run prints the header and executes one figure (or all) at the given
// scale, writing rows to out.
func run(figure string, scale float64, seed int64, out io.Writer) error {
	harness.WriteHeader(out)
	_, err := harness.RunFigure(figure, scale, seed, out)
	return err
}
