// Command silkmoth finds related sets in plain-text set files or CSV
// columns, exposing the library's discovery and search modes.
//
// Usage:
//
//	silkmoth -mode discover -input sets.txt -metric similarity -delta 0.8
//	silkmoth -mode search -input sets.txt -ref query.txt -metric containment -delta 0.7
//	silkmoth -mode discover -csv table.csv -metric containment -delta 0.9
//
// Set files hold one set per line: an optional "name:" prefix, then
// elements separated by '|'. With -csv, each column of the file becomes a
// set of its distinct values (the inclusion-dependency use case).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"silkmoth"
	"silkmoth/internal/dataset"
)

// options are the command's flags: the engine's settings, bound straight
// into a silkmoth.Config, and the run's own.
type options struct {
	cfg                           silkmoth.Config
	mode, input, csvFile, refFile string
	noCheck, noNN                 bool
	topK                          int
	explain, stats                bool
}

// parseFlags registers the command's flags on fs and parses args into
// options. -workers 0 becomes GOMAXPROCS.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.mode, "mode", "discover", "discover (all related pairs) or search (related to -ref)")
	fs.StringVar(&o.input, "input", "", "set file to index (one set per line)")
	fs.StringVar(&o.csvFile, "csv", "", "CSV file whose columns become sets (alternative to -input)")
	fs.StringVar(&o.refFile, "ref", "", "set file with reference sets (search mode)")
	fs.TextVar(&o.cfg.Metric, "metric", silkmoth.SetSimilarity, "similarity or containment (also set-similarity, set-containment)")
	fs.TextVar(&o.cfg.Similarity, "sim", silkmoth.Jaccard, "element similarity: jaccard, eds, neds, dice, or cosine")
	fs.Float64Var(&o.cfg.Delta, "delta", 0.7, "relatedness threshold δ in (0,1]")
	fs.Float64Var(&o.cfg.Alpha, "alpha", 0, "element similarity threshold α in [0,1)")
	fs.IntVar(&o.cfg.Q, "q", 0, "gram length for edit similarities (0 = auto)")
	fs.TextVar(&o.cfg.Scheme, "scheme", silkmoth.SchemeDichotomy, "signature scheme: dichotomy, skyline, weighted, combunweighted, auto (per-query cost-based)")
	fs.BoolVar(&o.noCheck, "no-check", false, "disable the check filter; the nearest-neighbor filter implies it, so this acts only with -no-nn")
	fs.BoolVar(&o.noNN, "no-nn", false, "disable the nearest-neighbor filter")
	fs.IntVar(&o.cfg.Concurrency, "workers", 0, "parallel search passes (0 = GOMAXPROCS)")
	fs.IntVar(&o.topK, "k", 0, "search mode: keep only the k most related sets per reference (0 = all)")
	fs.BoolVar(&o.explain, "explain", false, "print each query's plan (chosen scheme + pruning funnel + time) to stderr")
	fs.BoolVar(&o.stats, "stats", false, "print the pruning funnel to stderr")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.cfg.Concurrency == 0 {
		o.cfg.Concurrency = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	sets, err := loadSets(o.input, o.csvFile)
	if err != nil {
		fatal(err)
	}
	eng, err := silkmoth.NewEngine(sets, o.cfg)
	if err != nil {
		fatal(err)
	}

	// Every query of the run takes the same options; the explain capture is
	// rewritten by each.
	opts := filterOptions(o.noCheck, o.noNN)
	var ex silkmoth.Explain
	if o.explain {
		opts = append(opts, silkmoth.WithExplain(&ex))
	}
	ctx := context.Background()
	switch o.mode {
	case "discover":
		pairs, err := eng.DiscoverContext(ctx, opts...)
		if err != nil {
			fatal(err)
		}
		for _, p := range pairs {
			fmt.Printf("%s\t%s\t%.4f\t%.4f\n", p.RName, p.SName, p.Relatedness, p.MatchingScore)
		}
		if o.explain {
			printExplain("discover", &ex)
		}
	case "search":
		if o.refFile == "" {
			fatal(fmt.Errorf("search mode requires -ref"))
		}
		refs, err := dataset.ReadRawSetsFile(o.refFile)
		if err != nil {
			fatal(err)
		}
		if o.topK > 0 {
			opts = append(opts, silkmoth.WithK(o.topK))
		}
		for _, r := range refs {
			ms, err := eng.SearchContext(ctx, silkmoth.Set{Name: r.Name, Elements: r.Elements}, opts...)
			if err != nil {
				fatal(err)
			}
			for _, m := range ms {
				fmt.Printf("%s\t%s\t%.4f\t%.4f\n", r.Name, m.Name, m.Relatedness, m.MatchingScore)
			}
			if o.explain {
				printExplain(r.Name, &ex)
			}
		}
	default:
		fatal(fmt.Errorf("unknown -mode %q", o.mode))
	}

	if o.stats {
		st := eng.Stats()
		fmt.Fprintf(os.Stderr, "passes=%d candidates=%d after-check=%d after-nn=%d verified=%d\n",
			st.SearchPasses, st.Candidates, st.AfterCheck, st.AfterNN, st.Verified)
	}
}

// filterOptions turns the -no-check and -no-nn flags into the query options
// that switch those filters off; with both flags false they change nothing.
func filterOptions(noCheck, noNN bool) []silkmoth.QueryOption {
	return []silkmoth.QueryOption{silkmoth.WithCheckFilter(!noCheck), silkmoth.WithNNFilter(!noNN)}
}

// printExplain renders one query's plan on stderr: the chosen concrete
// scheme and the per-stage pruning funnel.
func printExplain(label string, ex *silkmoth.Explain) {
	fmt.Fprintf(os.Stderr,
		"explain %s: scheme=%s passes=%d sig-tokens=%d candidates=%d after-check=%d after-nn=%d verified=%d full-scans=%d elapsed=%s\n",
		label, ex.Scheme, ex.Passes, ex.SigTokens, ex.Candidates, ex.AfterCheck, ex.AfterNN, ex.Verified, ex.FullScans, ex.Elapsed)
}

func loadSets(input, csvFile string) ([]silkmoth.Set, error) {
	var raws []dataset.RawSet
	var err error
	switch {
	case input != "" && csvFile != "":
		return nil, fmt.Errorf("use either -input or -csv, not both")
	case input != "":
		raws, err = dataset.ReadRawSetsFile(input)
	case csvFile != "":
		f, ferr := os.Open(csvFile)
		if ferr != nil {
			return nil, ferr
		}
		defer f.Close()
		raws, err = dataset.ReadCSVColumns(f, "")
	default:
		return nil, fmt.Errorf("one of -input or -csv is required")
	}
	if err != nil {
		return nil, err
	}
	sets := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		sets[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	return sets, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silkmoth:", err)
	os.Exit(1)
}
