package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"silkmoth"
)

// options are the settings of one benchmark invocation.
type options struct {
	seed    int64
	scale   float64
	seconds float64
	// tmp is a scratch directory inside the checkout for durable engines.
	tmp string
	// spans is where the traced replay writes its span file.
	spans string
	// corrupt falsifies one engine answer before it is checked, so the
	// self-test can see the correctness checks fail.
	corrupt bool
}

// workloadReport is everything one run of one workload produced.
type workloadReport struct {
	Workload     string                 `json:"workload"`
	Sets         int                    `json:"sets"`
	CorpusDigest string                 `json:"corpus_digest"`
	ResultDigest string                 `json:"result_digest"`
	Rounds       int                    `json:"rounds"`
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	Metrics      map[string]metricValue `json:"metrics"`
	// Info holds numbers printed for the reader that are not declared
	// metrics: counts that must repeat exactly and one-off timings.
	Info map[string]float64 `json:"info,omitempty"`
	// Notes are the first few failed checks, spelled out.
	Notes []string `json:"notes,omitempty"`
}

func (r *workloadReport) correct() bool { return r.Failed == 0 }

func (r *workloadReport) note(format string, args ...any) {
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// roundResult is one round of a workload's fixed operations.
type roundResult struct {
	// wall is the round's time on the nominal host and every latency
	// below is scaled the same way (hostref.go); rawWall is the time as
	// measured and slowdown the reference kernel's mean time during the
	// round over its nominal time.
	wall, rawWall time.Duration
	slowdown      float64
	// rawP50 and rawP99 are the query latency percentiles as measured, in
	// microseconds.
	rawP50, rawP99 float64
	// ops counts reference sets answered plus writes acknowledged: a
	// batch of 16 counts 16, a DiscoverAgainst call of 4 references 4.
	ops int64
	// attempted and failed count caller operations (calls or requests).
	attempted, failed int64
	// queryNs holds the latency of every query the round issued.
	queryNs []int64
	// writeNs holds the latency of every acknowledged write.
	writeNs []int64
	digest  string
}

// load is a workload's traffic: rounds of fixed operations against a built
// engine, then correctness checks outside the timed region.
type load interface {
	// round runs round n's operations; n is 0 for the warm-up.
	round(ctx context.Context, n int) roundResult
	// check verifies answers and adds its own attempts and failures to
	// the report.
	check(ctx context.Context, rep *workloadReport)
	// close stops whatever the load started and releases the engine.
	close() error
}

// clients is the number of closed-loop callers of every workload: one
// goroutine calling the library, or one HTTP client on one keep-alive
// connection with the server's goroutine answering it. On the two shared
// cores the workloads were sized on, a second client measured the host's
// scheduler: the same code's p50 spread by a third between runs.
const clients = 1

// A run builds its engine at least minSetupBuilds times and goes on building
// until setupBudget has been spent or maxSetupBuilds is reached; setup_s is
// the median and the last build is the one the run uses. A 0.1 s build
// repeats far less exactly than a 1 s one, so the small corpora get the
// samples the large ones cannot afford.
const (
	minSetupBuilds = 5
	maxSetupBuilds = 15
	setupBudget    = 2 * time.Second
)

// minRounds is the fewest measured rounds a run reports on, however short
// --seconds is.
const minRounds = 2

// built is a constructed engine with what constructing it cost.
type built struct {
	eng *silkmoth.Engine
	cfg silkmoth.Config
	// setup is the build time on the nominal host, rawSetup the median as
	// measured.
	setup    metricValue
	rawSetup float64
	heapMB   float64
}

// heapAlloc returns the live heap. It collects twice: what a sync.Pool held
// survives the first collection in the pool's victim cache, and now and then
// that kept a closed engine alive through one.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// buildEngine measures silkmoth.NewEngine from raw sets — tokenize, intern,
// index, and the initial snapshot when durable — several times, each from a
// collected heap, and the live heap the last engine holds.
func buildEngine(sp spec, sets []silkmoth.Set, dir string) (built, error) {
	var b built
	var secs, rawSecs []float64
	var spent time.Duration
	// The heap before any engine exists: every engine but the last is
	// closed and collected by the time the live heap is read.
	base := heapAlloc()
	for i := 0; ; i++ {
		if b.eng != nil {
			if err := b.eng.Close(); err != nil {
				return b, err
			}
			if sp.Durable {
				if err := os.RemoveAll(b.cfg.DataDir); err != nil {
					return b, err
				}
			}
			b.eng = nil
		}
		b.cfg = sp.Config
		if sp.Durable {
			b.cfg.DataDir = filepath.Join(dir, fmt.Sprintf("data%d", i))
		}
		runtime.GC()
		var eng *silkmoth.Engine
		var err error
		took, raw := timeScaled(func() { eng, err = silkmoth.NewEngine(sets, b.cfg) })
		if err != nil {
			return b, fmt.Errorf("building %s engine: %w", sp.Name, err)
		}
		b.eng = eng
		secs = append(secs, took.Seconds())
		rawSecs = append(rawSecs, raw.Seconds())
		spent += raw
		if n := len(secs); n >= maxSetupBuilds || (n >= minSetupBuilds && spent >= setupBudget) {
			b.heapMB = (float64(heapAlloc()) - float64(base)) / (1 << 20)
			break
		}
	}
	b.setup = summarize("s", secs)
	b.rawSetup = median(rawSecs)
	return b, nil
}

// runWorkload builds the workload's engine, drives its load for
// o.seconds of measured rounds after one warm-up round, checks the
// answers, and reports every end-to-end metric.
func runWorkload(ctx context.Context, sp spec, o options) (*workloadReport, error) {
	sets := toSets(sp.Corpus(o.seed, o.scale))
	rep := &workloadReport{
		Workload:     sp.Name,
		Sets:         len(sets),
		CorpusDigest: corpusDigest(sets),
		Metrics:      map[string]metricValue{},
		Info:         map[string]float64{},
	}
	if err := checkSeed1Digest(sp.Name, o.seed, o.scale, rep.CorpusDigest); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmp, sp.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b, err := buildEngine(sp, sets, dir)
	if err != nil {
		return nil, err
	}
	rep.Metrics["setup_s"] = b.setup
	rep.Metrics["heap_live_mb"] = single("MiB", b.heapMB)
	rep.Info["raw_setup_s"] = b.rawSetup

	ld, err := newLoad(sp, b, sets, o)
	if err != nil {
		b.eng.Close()
		return nil, err
	}
	warm := ld.round(ctx, 0)
	rep.Attempted += warm.attempted
	rep.Failed += warm.failed

	var rounds []roundResult
	start := time.Now()
	for n := 1; ; n++ {
		// Start every round from a collected heap, so that how many
		// collections fall inside a round does not depend on where the
		// previous round left the collector.
		runtime.GC()
		rr := ld.round(ctx, n)
		rounds = append(rounds, rr)
		rep.Attempted += rr.attempted
		rep.Failed += rr.failed
		// Stop at the whole number of rounds nearest to --seconds.
		if len(rounds) >= minRounds && (time.Since(start)+rr.rawWall/2).Seconds() >= o.seconds {
			break
		}
		if err := ctx.Err(); err != nil {
			ld.close()
			return nil, err
		}
	}
	rep.Rounds = len(rounds)
	rep.ResultDigest = rounds[0].digest
	rep.Info["ops_per_round"] = float64(rounds[0].ops)
	rep.Info["queries_per_round"] = float64(len(rounds[0].queryNs))

	var tput, rawTput, rawP50, rawP99, slowdown []float64
	for _, rr := range rounds {
		tput = append(tput, float64(rr.ops)/rr.wall.Seconds())
		rawTput = append(rawTput, float64(rr.ops)/rr.rawWall.Seconds())
		rawP50 = append(rawP50, rr.rawP50)
		rawP99 = append(rawP99, rr.rawP99)
		slowdown = append(slowdown, rr.slowdown)
	}
	rep.Metrics["ops_per_s"] = summarize("1/s", tput)
	rep.Info["raw_ops_per_s"] = median(rawTput)
	rep.Info["raw_query_p50_us"] = median(rawP50)
	rep.Info["raw_query_p99_us"] = median(rawP99)
	rep.Info["host_slowdown"] = median(slowdown)
	rep.Metrics["query_p50_us"], rep.Metrics["query_p99_us"] = latencyMetrics(rounds,
		func(rr roundResult) []int64 { return rr.queryNs })
	if w50, w99 := latencyMetrics(rounds, func(rr roundResult) []int64 { return rr.writeNs }); w50.Samples > 0 {
		rep.Info["write_p50_us"] = w50.Value
		rep.Info["write_p99_us"] = w99.Value
	}

	c0 := time.Now()
	ld.check(ctx, rep)
	rep.Info["check_s"] = time.Since(c0).Seconds()
	if err := ld.close(); err != nil {
		return nil, err
	}
	return rep, nil
}

// latencyMetrics reports the median and the 99th percentile (nearest rank)
// of the latencies pick selects, per round, and of those the median over
// rounds. A round of one query, like a Discover call, has that one latency
// for both.
func latencyMetrics(rounds []roundResult, pick func(roundResult) []int64) (p50, p99 metricValue) {
	var r50, r99 []float64
	for _, rr := range rounds {
		ns := slices.Clone(pick(rr))
		if len(ns) == 0 {
			continue
		}
		slices.Sort(ns)
		r50 = append(r50, float64(percentile(ns, 0.50))/1e3)
		r99 = append(r99, float64(percentile(ns, 0.99))/1e3)
	}
	return summarize("us", r50), summarize("us", r99)
}

// freshSeedOffset separates the corpus of written sets from the served one.
const freshSeedOffset = 7919

func newLoad(sp spec, b built, sets []silkmoth.Set, o options) (load, error) {
	perRound := scaled(sp.RoundOps, o.scale, 64)
	switch sp.Kind {
	case kindDiscover:
		return newDiscoverLoad(sp, b, sets, o), nil
	case kindSearch:
		return newSearchLoad(sp, b, sets, o), nil
	case kindServeSearch:
		return newServeSearchLoad(b, sets, o, perRound, false)
	case kindServeMixed:
		return newServeMixedLoad(b, sets, toSets(sp.Corpus(o.seed+freshSeedOffset, o.scale)), o, perRound)
	default:
		return nil, fmt.Errorf("workload %s: unknown kind %d", sp.Name, sp.Kind)
	}
}
