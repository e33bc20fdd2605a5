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
	"flag"
	"fmt"
	"os"
	"runtime"

	"silkmoth"
	"silkmoth/internal/dataset"
)

func main() {
	var (
		mode      = flag.String("mode", "discover", "discover (all related pairs) or search (related to -ref)")
		input     = flag.String("input", "", "set file to index (one set per line)")
		csvFile   = flag.String("csv", "", "CSV file whose columns become sets (alternative to -input)")
		refFile   = flag.String("ref", "", "set file with reference sets (search mode)")
		metric    = flag.String("metric", "similarity", "similarity or containment")
		simName   = flag.String("sim", "jaccard", "element similarity: jaccard, eds, or neds")
		delta     = flag.Float64("delta", 0.7, "relatedness threshold δ in (0,1]")
		alpha     = flag.Float64("alpha", 0, "element similarity threshold α in [0,1)")
		q         = flag.Int("q", 0, "gram length for edit similarities (0 = auto)")
		scheme    = flag.String("scheme", "dichotomy", "signature scheme: dichotomy, skyline, weighted, combunweighted, auto (per-query cost-based)")
		noCheck   = flag.Bool("no-check", false, "disable the check filter; the nearest-neighbor filter implies it, so this acts only with -no-nn")
		noNN      = flag.Bool("no-nn", false, "disable the nearest-neighbor filter")
		noRed     = flag.Bool("no-reduction", false, "disable reduction-based verification")
		workers   = flag.Int("workers", 0, "parallel search passes (0 = GOMAXPROCS)")
		topK      = flag.Int("k", 0, "search mode: keep only the k most related sets per reference (0 = all)")
		explain   = flag.Bool("explain", false, "print each query's plan (chosen scheme + pruning funnel + time) to stderr")
		showStats = flag.Bool("stats", false, "print the pruning funnel to stderr")
	)
	flag.Parse()

	cfg, err := buildConfig(*metric, *simName, *scheme, *delta, *alpha, *q, *workers)
	if err != nil {
		fatal(err)
	}

	sets, err := loadSets(*input, *csvFile)
	if err != nil {
		fatal(err)
	}
	eng, err := silkmoth.NewEngine(sets, cfg)
	if err != nil {
		fatal(err)
	}

	// Every query of the run takes the same options; the explain capture is
	// rewritten by each.
	opts := filterOptions(*noCheck, *noNN, *noRed)
	var ex silkmoth.Explain
	if *explain {
		opts = append(opts, silkmoth.WithExplain(&ex))
	}
	switch *mode {
	case "discover":
		for _, p := range eng.Discover(opts...) {
			fmt.Printf("%s\t%s\t%.4f\t%.4f\n", p.RName, p.SName, p.Relatedness, p.MatchingScore)
		}
		if *explain {
			printExplain("discover", &ex)
		}
	case "search":
		if *refFile == "" {
			fatal(fmt.Errorf("search mode requires -ref"))
		}
		refs, err := dataset.ReadRawSetsFile(*refFile)
		if err != nil {
			fatal(err)
		}
		if *topK > 0 {
			opts = append(opts, silkmoth.WithK(*topK))
		}
		for _, r := range refs {
			ms, err := eng.Search(silkmoth.Set{Name: r.Name, Elements: r.Elements}, opts...)
			if err != nil {
				fatal(err)
			}
			for _, m := range ms {
				fmt.Printf("%s\t%s\t%.4f\t%.4f\n", r.Name, m.Name, m.Relatedness, m.MatchingScore)
			}
			if *explain {
				printExplain(r.Name, &ex)
			}
		}
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}

	if *showStats {
		st := eng.Stats()
		fmt.Fprintf(os.Stderr, "passes=%d candidates=%d after-check=%d after-nn=%d verified=%d\n",
			st.SearchPasses, st.Candidates, st.AfterCheck, st.AfterNN, st.Verified)
	}
}

func buildConfig(metric, simName, scheme string, delta, alpha float64, q, workers int) (silkmoth.Config, error) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := silkmoth.Config{Delta: delta, Alpha: alpha, Q: q, Concurrency: workers}
	switch metric {
	case "similarity":
		cfg.Metric = silkmoth.SetSimilarity
	case "containment":
		cfg.Metric = silkmoth.SetContainment
	default:
		return cfg, fmt.Errorf("unknown -metric %q", metric)
	}
	switch simName {
	case "jaccard":
		cfg.Similarity = silkmoth.Jaccard
	case "eds":
		cfg.Similarity = silkmoth.Eds
	case "neds":
		cfg.Similarity = silkmoth.NEds
	default:
		return cfg, fmt.Errorf("unknown -sim %q", simName)
	}
	sc, err := silkmoth.ParseScheme(scheme)
	if err != nil {
		return cfg, fmt.Errorf("unknown -scheme %q", scheme)
	}
	cfg.Scheme = sc
	return cfg, nil
}

// filterOptions turns the -no-check, -no-nn and -no-reduction flags into
// the query options that switch those pipeline stages off; with every flag
// false they change nothing.
func filterOptions(noCheck, noNN, noRed bool) []silkmoth.QueryOption {
	return []silkmoth.QueryOption{
		silkmoth.WithCheckFilter(!noCheck), silkmoth.WithNNFilter(!noNN), silkmoth.WithReduction(!noRed),
	}
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
