package main

import (
	"fmt"
	"io"
	"math"
)

// worseBy is how much worse b reads than a as a share of a, positive when
// worse, whichever direction is better for the metric.
func worseBy(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func findReport(rep *report, name string) *workloadReport {
	for _, wr := range rep.Workloads {
		if wr.Workload == name {
			return wr
		}
	}
	return nil
}

// agree is the A/A check: two runs of the same code on the same seed must
// print identical digests and counts, and no end-to-end metric may differ
// by more than its bound. It prints every difference beside its bound.
func agree(a, b *report, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "== A/A: two runs, seed %d\n", a.Seed)
	for _, wa := range a.Workloads {
		wb := findReport(b, wa.Workload)
		if wa.CorpusDigest != wb.CorpusDigest || wa.ResultDigest != wb.ResultDigest {
			fmt.Fprintf(w, "  %-20s digests differ: corpus %s/%s result %s/%s\n",
				wa.Workload, wa.CorpusDigest, wb.CorpusDigest, wa.ResultDigest, wb.ResultDigest)
			ok = false
		}
		for _, k := range []string{"ops_per_round", "queries_per_round"} {
			if wa.Info[k] != wb.Info[k] {
				fmt.Fprintf(w, "  %-20s %s differs: %g vs %g\n", wa.Workload, k, wa.Info[k], wb.Info[k])
				ok = false
			}
		}
		for _, d := range declared(a.Trace) {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if d.Unit == "count" && ma.Value != mb.Value {
				fmt.Fprintf(w, "  %-20s %-28s count differs: %g vs %g\n", wa.Workload, d.Name, ma.Value, mb.Value)
				ok = false
				continue
			}
			if d.Bound == 0 {
				continue
			}
			diff := math.Abs(worseBy(d, ma.Value, mb.Value))
			verdict := "ok"
			if diff > d.Bound {
				verdict = "EXCEEDS"
				ok = false
			}
			fmt.Fprintf(w, "  %-20s %-14s %14.4f %14.4f %-4s diff %.4f of first, bound %.2f  %s\n",
				wa.Workload, d.Name, ma.Value, mb.Value, d.Unit, diff, d.Bound, verdict)
		}
	}
	return ok
}

// verdict classifies b against a for one end-to-end metric. A spread over
// rounds wider than the bound leaves the metric unresolved unless every
// reading of one side is better than every reading of the other.
func verdict(d metricDecl, a, b metricValue) string {
	spread := 0.0
	for _, m := range []metricValue{a, b} {
		if m.Value != 0 {
			spread = max(spread, (m.Max-m.Min)/math.Abs(m.Value))
		}
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	if spread > d.Bound && overlap {
		return "unresolved"
	}
	switch w := worseBy(d, a.Value, b.Value); {
	case w > d.Bound:
		return "worse"
	case w < -d.Bound:
		return "better"
	default:
		return "within-bound"
	}
}

// compareReports prints one row per workload and end-to-end metric of two
// --out files: both values with their min and max over rounds, the ratio
// with the first file as its base, and the verdict.
func compareReports(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	if err == nil && a.Trace != 0 {
		err = fmt.Errorf("%s: not an untraced report", pathA)
	}
	var b *report
	if err == nil {
		b, err = readReport(pathB)
	}
	if err == nil && b.Trace != 0 {
		err = fmt.Errorf("%s: not an untraced report", pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "silkbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "base: %s (seed %d)   other: %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(stdout, "%-20s %-14s %-6s %36s %36s %12s  %s\n",
		"workload", "metric", "unit", "base [min, max over rounds]", "other [min, max over rounds]", "other/base", "verdict")
	code := 0
	for _, wa := range a.Workloads {
		wb := findReport(b, wa.Workload)
		if wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			v := verdict(d, ma, mb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-20s %-14s %-6s %36s %36s %12.4f  %s\n", wa.Workload, d.Name, d.Unit,
				fmt.Sprintf("%.4f [%.4f, %.4f]", ma.Value, ma.Min, ma.Max),
				fmt.Sprintf("%.4f [%.4f, %.4f]", mb.Value, mb.Min, mb.Max),
				mb.Value/ma.Value, v)
		}
		fmt.Fprintf(stdout, "%-20s failed %d of %d (base), %d of %d (other)\n", wa.Workload, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
	}
	return code
}
