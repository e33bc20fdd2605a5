package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/paperdata"
	"silkmoth/internal/signature"
	"silkmoth/internal/tokens"
)

// testScale keeps every workload to a few hundred sets and operations.
const testScale = 0.02

func testOptions(t *testing.T) options {
	t.Helper()
	dir := t.TempDir()
	return options{
		seed: 1, scale: testScale, seconds: 0.05,
		tmp:   dir,
		spans: filepath.Join(dir, "spans.json"),
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// The tables in metrics.go and workloads.go and the declarations in
// BENCHMARK.json are the same list twice; this keeps them from drifting.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over the 200 allowed", w.Name, len(w.Why))
		}
	}
	var e2e, layer []metricDecl
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDecl{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDecl{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json  %v\n table %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer differs:\n json  %v\n table %v", layer, perLayer)
	}
}

// Every workload runs clean at a small scale and fills every end-to-end
// metric with a non-zero value.
func TestWorkloadsSmoke(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.Name, func(t *testing.T) {
			rep, err := runWorkload(context.Background(), sp, testOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("attempted %d failed %d: %v", rep.Attempted, rep.Failed, rep.Notes)
			}
			for _, d := range endToEnd {
				if m, ok := rep.Metrics[d.Name]; !ok || m.Value <= 0 {
					t.Errorf("%s = %v (present %v), want a positive value", d.Name, m.Value, ok)
				}
			}
		})
	}
}

// The traced replay reproduces core's answers from outside on every
// workload, fills every per-layer metric, and writes a span file.
func TestTraceSmoke(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.Name, func(t *testing.T) {
			o := testOptions(t)
			rep, err := traceWorkload(context.Background(), sp, o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("failed %d: %v", rep.Failed, rep.Notes)
			}
			for _, d := range perLayer {
				if _, ok := rep.Metrics[d.Name]; !ok {
					t.Errorf("%s was not measured", d.Name)
				}
			}
			raw, err := os.ReadFile(o.spans)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatal(err)
			}
			if want := 9 * int(rep.Info["trace_sample"]); len(spans) != want {
				t.Errorf("%d spans, want %d", len(spans), want)
			}
		})
	}
}

// The driver's result line carries exactly the declared metric names.
func TestDriverLineNames(t *testing.T) {
	for trace, decls := range [][]metricDecl{endToEnd, perLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "serve_search", "--seed", "3", "--seconds", "0.05", "--scale", "0.02",
			"--trace", []string{"0", "1"}[trace], "--spans", filepath.Join(t.TempDir(), "spans.json")}
		if code := run(context.Background(), args, t.TempDir(), &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		var keys []string
		for k := range line {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
			t.Errorf("trace %d: result keys %v, want %v", trace, keys, want)
		}
		var metrics map[string]driverMetric
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for k := range metrics {
			got = append(got, k)
		}
		for _, d := range decls {
			want = append(want, d.Name)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("trace %d: metrics %v, want %v", trace, got, want)
		}
	}
}

// Same seed, same inputs and answers; another seed, another corpus.
func TestSeedDeterminism(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.Name, func(t *testing.T) {
			a, err := runWorkload(context.Background(), sp, testOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(context.Background(), sp, testOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if a.CorpusDigest != b.CorpusDigest || a.ResultDigest != b.ResultDigest || a.ResultDigest == "" {
				t.Errorf("digests differ on one seed: %s/%s vs %s/%s", a.CorpusDigest, a.ResultDigest, b.CorpusDigest, b.ResultDigest)
			}
			for _, k := range []string{"ops_per_round", "queries_per_round"} {
				if a.Info[k] != b.Info[k] {
					t.Errorf("%s differs on one seed: %v vs %v", k, a.Info[k], b.Info[k])
				}
			}
			o := testOptions(t)
			o.seed = 2
			c := corpusDigest(toSets(sp.Corpus(o.seed, o.scale)))
			if c == a.CorpusDigest {
				t.Errorf("seeds 1 and 2 generate the same corpus %s", c)
			}
		})
	}
}

// A falsified answer must show up as a failure on every workload, or the
// correctness checks check nothing.
func TestCorruptAnswerFails(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.Name, func(t *testing.T) {
			o := testOptions(t)
			o.corrupt = true
			rep, err := runWorkload(context.Background(), sp, o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed == 0 {
				t.Fatalf("a corrupted answer passed %d checks", rep.Attempted)
			}
		})
	}
}

// On the paper's running example (Table 2) the staged replay and core's own
// search both relate R to S4 alone.
func TestStagedReplayOnPaperExample(t *testing.T) {
	dict := tokens.NewDictionary()
	coll := dataset.Build(dict, paperdata.CollectionS(), dataset.ModeWord, 0)
	opts := core.DefaultOptions(core.SetContainment, core.Jaccard, 0.7, 0)
	eng, err := core.NewEngineFromIndex(index.Build(coll), opts)
	if err != nil {
		t.Fatal(err)
	}
	var qs dataset.QueryScratch
	r := &qs.Build(dict, []dataset.RawSet{paperdata.ReferenceR()}, dataset.ModeWord, 0).Sets[0]
	tr := &tracer{t0: time.Now(), rep: &workloadReport{}}
	p := newStages(eng, signature.FamilyJaccard).run(tr, r, nil)
	want, err := eng.SearchContext(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCoreMatches(p.matches, want) {
		t.Fatalf("staged replay %v, core %v", p.matches, want)
	}
	if len(want) != 1 || coll.Sets[want[0].Set].Name != "S4" {
		t.Fatalf("core relates R to %v, the paper to S4 alone", want)
	}
	if p.candidates < p.afterCheck || p.afterCheck < p.afterNN || p.afterNN != p.verified {
		t.Errorf("funnel does not narrow: %d candidates, %d after check, %d after nn, %d verified",
			p.candidates, p.afterCheck, p.afterNN, p.verified)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "latency", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(v float64) metricValue { return metricValue{Value: v, Min: v * 0.99, Max: v * 1.01, Samples: 5} }
	wide := func(v float64) metricValue { return metricValue{Value: v, Min: v * 0.8, Max: v * 1.2, Samples: 5} }
	for _, c := range []struct {
		d    metricDecl
		a, b metricValue
		want string
	}{
		{lower, tight(100), tight(105), "within-bound"},
		{lower, tight(100), tight(120), "worse"},
		{lower, tight(100), tight(80), "better"},
		{higher, tight(100), tight(80), "worse"},
		{higher, tight(100), tight(120), "better"},
		{lower, wide(100), wide(105), "unresolved"},
		{lower, wide(100), wide(200), "worse"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// Two reports of one run agree; a moved metric or a changed digest does not.
func TestAgree(t *testing.T) {
	mk := func(p50 float64, digest string) *report {
		wr := &workloadReport{Workload: "w", CorpusDigest: "c", ResultDigest: digest, Metrics: map[string]metricValue{}, Info: map[string]float64{}}
		for _, d := range endToEnd {
			wr.Metrics[d.Name] = single(d.Unit, 100)
		}
		wr.Metrics["query_p50_us"] = single("us", p50)
		return &report{Seed: 1, Workloads: []*workloadReport{wr}}
	}
	var out bytes.Buffer
	if !agree(mk(100, "r"), mk(104, "r"), &out) {
		t.Errorf("runs within bound disagree:\n%s", out.String())
	}
	if agree(mk(100, "r"), mk(140, "r"), &out) {
		t.Error("a 40% move on a 25% bound agrees")
	}
	if agree(mk(100, "r"), mk(100, "other"), &out) {
		t.Error("different result digests agree")
	}
}

// A slice the reference kernel ran twice as slowly beside counts half: its
// wall time and its latencies, and no other slice's.
func TestSlicerScalesBySlice(t *testing.T) {
	s := slicer{
		rr:      roundResult{queryNs: []int64{1000, 3000, 5000}, writeNs: []int64{800}},
		ref:     []time.Duration{refNominal, refNominal, 3 * refNominal},
		wall:    []time.Duration{10 * time.Millisecond, 10 * time.Millisecond},
		queries: []int{2, 3},
		writes:  []int{0, 1},
	}
	rr := s.scaled()
	if want := []int64{1000, 3000, 2500}; !slices.Equal(rr.queryNs, want) {
		t.Errorf("query latencies %v, want %v", rr.queryNs, want)
	}
	if want := []int64{400}; !slices.Equal(rr.writeNs, want) {
		t.Errorf("write latencies %v, want %v", rr.writeNs, want)
	}
	if rr.wall != 15*time.Millisecond || rr.rawWall != 20*time.Millisecond {
		t.Errorf("wall %v raw %v, want 15ms and 20ms", rr.wall, rr.rawWall)
	}
	if rr.slowdown != 1.5 || rr.rawP50 != 3 || rr.rawP99 != 5 {
		t.Errorf("slowdown %v raw p50 %v p99 %v, want 1.5, 3 and 5", rr.slowdown, rr.rawP50, rr.rawP99)
	}
}
