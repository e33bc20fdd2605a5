// Command silkbench is the repository's one benchmark: four seeded
// workloads run against the public library and against the serving handler
// behind a loopback listener, end-to-end metrics from an untraced run, and
// per-layer metrics from a traced replay through the layers' exported
// functions. BENCHMARK.json at the repository root declares the command, the
// workloads and every metric name; README.md in this directory defines them.
//
//	go run -C cmd/silkbench . --workload serve_search --seed 1 --seconds 20 --trace 0
//	go run -C cmd/silkbench . --seed 1                 # all four workloads, a table each
//	go run -C cmd/silkbench . --seed 1 --aa            # each workload twice; the two runs must agree
//	go run -C cmd/silkbench . --compare a.json b.json  # two --out reports side by side
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// report is what one invocation measured, as --out writes it and --compare
// reads it.
type report struct {
	Seed       int64             `json:"seed"`
	Scale      float64           `json:"scale"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go"`
	Workloads  []*workloadReport `json:"workloads"`
}

// driverLine is the last line of standard output: the result of a
// single-workload run in the shape the benchmark driver reads.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// Scratch files belong inside the checkout, out of git's sight.
	tmp := filepath.Join(checkoutRoot(), ".bench_build", "silkbench")
	code := run(ctx, os.Args[1:], tmp, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// checkoutRoot is the nearest ancestor of the working directory that holds
// BENCHMARK.json: `go run -C cmd/silkbench` starts the program inside the
// benchmark's own directory.
func checkoutRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		if dir == filepath.Dir(dir) {
			return wd
		}
	}
}

// run is the command: tmp is the directory its scratch files go under.
func run(ctx context.Context, args []string, tmp string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("silkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the corpora and the request scripts are generated from")
	seconds := fs.Float64("seconds", 20, "measured time per workload, after one warm-up round")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced replay, per-layer metrics")
	scale := fs.Float64("scale", 1, "multiplier on corpus sizes and operations per round")
	out := fs.String("out", "", "also write the full report to this file as JSON")
	spans := fs.String("spans", "", "traced replay: span file (default .bench_build/silkbench/trace-<workload>.json in the checkout)")
	aa := fs.Bool("aa", false, "run every workload twice on the same seed and fail if the two runs disagree beyond a metric's bound")
	compare := fs.Bool("compare", false, "compare two --out reports given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "silkbench: --compare takes two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "silkbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if *scale <= 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "silkbench: --scale and --seconds must be positive, --trace 0 or 1")
		return 2
	}
	var specs []spec
	if *workload == "all" {
		specs = workloads
	} else if sp, ok := findWorkload(*workload); ok {
		specs = []spec{sp}
	} else {
		var names []string
		for _, sp := range workloads {
			names = append(names, sp.Name)
		}
		fmt.Fprintf(stderr, "silkbench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}

	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "silkbench: %v\n", err)
		return 1
	}
	o := options{seed: *seed, scale: *scale, seconds: *seconds, tmp: tmp}

	// With --aa every workload runs twice back to back, so that the two
	// readings of a metric are seconds apart and not a whole suite apart:
	// the host's speed drifts by more over minutes than the code's does.
	rep := &report{
		Seed: *seed, Scale: *scale, Seconds: *seconds, Trace: *trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	again := *rep
	passes := []*report{rep}
	if *aa {
		passes = append(passes, &again)
	}
	for _, sp := range specs {
		o := o
		o.spans = *spans
		if o.spans == "" {
			o.spans = filepath.Join(tmp, "trace-"+sp.Name+".json")
		}
		for _, r := range passes {
			var wr *workloadReport
			var err error
			if *trace == 1 {
				wr, err = traceWorkload(ctx, sp, o)
			} else {
				wr, err = runWorkload(ctx, sp, o)
			}
			if err != nil {
				fmt.Fprintf(stderr, "silkbench: %s: %v\n", sp.Name, err)
				return 1
			}
			printWorkload(stdout, r, wr, sp)
			r.Workloads = append(r.Workloads, wr)
		}
	}
	code := 0
	if *aa && !agree(rep, &again, stdout) {
		code = 1
	}
	if *out != "" {
		if err := writeJSONFile(*out, rep); err != nil {
			fmt.Fprintf(stderr, "silkbench: %v\n", err)
			return 1
		}
	}
	if len(rep.Workloads) == 1 {
		if err := printDriverLine(stdout, rep.Workloads[0], *trace); err != nil {
			fmt.Fprintf(stderr, "silkbench: %v\n", err)
			return 1
		}
	}
	for _, wr := range rep.Workloads {
		if !wr.correct() {
			code = 1
		}
	}
	return code
}

// declared returns the metric table a run of the given mode must fill.
func declared(trace int) []metricDecl {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// printDriverLine writes the single-workload result line. A declared
// metric the run did not produce is an error, not a silent zero.
func printDriverLine(w io.Writer, wr *workloadReport, trace int) error {
	line := driverLine{
		Correct:   wr.correct(),
		Attempted: wr.Attempted,
		Failed:    wr.Failed,
		Metrics:   make(map[string]driverMetric),
	}
	for _, d := range declared(trace) {
		m, ok := wr.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", wr.Workload, d.Name)
		}
		line.Metrics[d.Name] = driverMetric{Value: m.Value, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printWorkload writes one workload's metrics by name with their units,
// spreads and sample counts, then its counts and digests.
func printWorkload(w io.Writer, rep *report, wr *workloadReport, sp spec) {
	fmt.Fprintf(w, "== %s  seed=%d scale=%g sets=%d rounds=%d clients=%d nproc=%d GOMAXPROCS=%d %s\n",
		wr.Workload, rep.Seed, rep.Scale, wr.Sets, wr.Rounds, clients, rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion)
	for _, d := range declared(rep.Trace) {
		m, ok := wr.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s median %.4f min %.4f max %.4f n=%d\n", d.Name, m.Value, d.Unit, m.Median, m.Min, m.Max, m.Samples)
	}
	keys := make([]string, 0, len(wr.Info))
	for k := range wr.Info {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-30s %14.4f\n", k, wr.Info[k])
	}
	if sp.Preview != "" && rep.Trace == 1 {
		fmt.Fprintf(w, "  stage shares when sized: %s\n", sp.Preview)
	}
	ratio := 0.0
	if wr.Attempted > 0 {
		ratio = float64(wr.Failed) / float64(wr.Attempted)
	}
	fmt.Fprintf(w, "  ops_attempted %d ops_failed %d failed_ratio %g\n", wr.Attempted, wr.Failed, ratio)
	fmt.Fprintf(w, "  corpus_digest %s result_digest %s\n", wr.CorpusDigest, wr.ResultDigest)
	for _, n := range wr.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads in report")
	}
	return &rep, nil
}
