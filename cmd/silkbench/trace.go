package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"silkmoth"
	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/filter"
	"silkmoth/internal/index"
	"silkmoth/internal/server"
	"silkmoth/internal/shard"
	"silkmoth/internal/signature"
	"silkmoth/internal/sim"
	"silkmoth/internal/tokens"
	"silkmoth/internal/wal"
)

// The traced replay times every layer from outside, through its exported
// functions, on one goroutine. Nesting cannot be observed from outside a
// call, so every level of the span tree
//
//	server.handler ⊃ api.search ⊃ {dataset.query_build, shard.search ⊃
//	  core.search ⊃ {signature.generate, filter.collect, filter.nn, matching.verify}}
//
// is timed on its own call with the same query, and a parent's self time is
// its median minus its children's medians.

// Tolerances of the core pipeline, repeated here because the staged replay
// must prune and accept exactly as core does (internal/core/engine.go).
const (
	acceptEps  = 1e-9
	pruneSlack = 1e-6
	sizeEps    = 1e-9
)

// Sizes of the traced replay's fixed samples.
const (
	simPairs     = 20000 // element pairs the sim kernels are timed on
	pairsPerCall = 8     // pairs taken from one query's candidates
	mutations    = 100   // timed calls of each of Add, Update, Delete
	walRecords   = 500   // records appended to and replayed from the bare store
	cachedSample = 512   // queries of the warm-cache pass; below the cache's 1024 entries
	loadOps      = 3000  // requests in each loopback load phase
	topK         = 10
)

// span is one timed call of the traced replay. Spans of one query share
// its request id; Parent is the id of the span whose call contains this
// one in the real request path, 0 for a root.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Request string           `json:"request_id"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// interval is one call's start and end, in nanoseconds since trace start.
type interval struct{ start, end int64 }

func (iv interval) ns() int64 { return iv.end - iv.start }

// level is one layer boundary timed over the whole sample.
type level struct {
	calls  []interval
	allocs float64 // heap allocations per call
	wall   time.Duration
}

func (l *level) medianNs() float64 { return l.metric().Value }

func (l *level) metric() metricValue {
	ns := make([]float64, len(l.calls))
	for i, c := range l.calls {
		ns[i] = float64(c.ns())
	}
	return summarize("ns", ns)
}

// tracer holds the replay's clock and the workload's layers.
type tracer struct {
	t0  time.Time
	rep *workloadReport
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeLevel calls fn once per sample index, recording each call's interval
// and the allocations per call over the loop. prep, when non-nil, runs
// before each call outside its interval.
func (t *tracer) timeLevel(n int, prep func(i int), fn func(i int)) *level {
	l := &level{calls: make([]interval, n)}
	if n == 0 {
		return l
	}
	m0 := mallocs()
	w0 := time.Now()
	for i := 0; i < n; i++ {
		if prep != nil {
			prep(i)
		}
		s := t.now()
		fn(i)
		l.calls[i] = interval{s, t.now()}
	}
	l.wall = time.Since(w0)
	l.allocs = float64(mallocs()-m0) / float64(n)
	return l
}

func (t *tracer) set(name string, v metricValue) { t.rep.Metrics[name] = v }

func (t *tracer) fail(format string, args ...any) {
	t.rep.Failed++
	t.rep.note(format, args...)
}

// coreOptions maps the workload's public configuration to the options the
// internal layers take, the way silkmoth.Config.coreOptions does.
func coreOptions(cfg silkmoth.Config) (core.Options, signature.Family, error) {
	o := core.DefaultOptions(core.SetSimilarity, core.Jaccard, cfg.Delta, cfg.Alpha)
	if cfg.Metric == silkmoth.SetContainment {
		o.Metric = core.SetContainment
	}
	fam := signature.FamilyJaccard
	switch cfg.Similarity {
	case silkmoth.Jaccard:
	case silkmoth.Eds:
		o.Sim, fam = core.Eds, signature.FamilyEdit
		o.Q = core.DefaultQ(cfg.Delta, cfg.Alpha)
	default:
		return o, fam, fmt.Errorf("traced replay has no φ for similarity %v", cfg.Similarity)
	}
	o.CompressPostings = cfg.CompressedPostings
	o.PostingCacheBytes = cfg.PostingCacheBytes
	o.StageSample = -1 // the replay times stages itself
	return o, fam, nil
}

// phiFunc rebuilds φ_α from internal/sim exactly as core does.
func phiFunc(o core.Options) filter.SimFunc {
	alpha := o.Alpha
	if o.Sim == core.Eds {
		return func(r, s *dataset.Element) float64 { return sim.EdsAlpha(r.Raw, s.Raw, alpha) }
	}
	return func(r, s *dataset.Element) float64 {
		return sim.Alpha(sim.JaccardSorted(r.Tokens, s.Tokens), alpha)
	}
}

// stages is the staged replay of one search pass: the same calls, in the
// same order and with the same thresholds as core's pipeline, made through
// the layers' exported functions so each can be timed from outside.
type stages struct {
	eng    *core.Engine
	coll   *dataset.Collection
	ix     *index.Inverted
	opts   core.Options
	family signature.Family
	phi    filter.SimFunc
	sel    signature.Selector
	cl     *filter.Collector
	ns     *filter.NNSearcher
	floors []float64
	// Per-pass acceptance state, as core's acceptState.
	nR int
}

func newStages(eng *core.Engine, family signature.Family) *stages {
	st := &stages{
		eng:    eng,
		coll:   eng.Collection(),
		ix:     eng.Index(),
		opts:   eng.Options(),
		family: family,
	}
	st.phi = phiFunc(st.opts)
	st.cl = filter.NewCollector(st.ix)
	st.ns = filter.NewNNSearcher(st.ix, st.phi)
	return st
}

func (st *stages) accept(set int32) bool {
	if !st.eng.Alive(int(set)) {
		return false
	}
	nS := len(st.coll.Sets[set].Elements)
	if st.opts.Metric == core.SetContainment {
		return nS >= st.nR
	}
	d := st.opts.Delta
	return float64(nS) >= d*float64(st.nR)-sizeEps && float64(nS) <= float64(st.nR)/d+sizeEps
}

// verify computes the exact matching score and applies the metric's
// threshold, as core's verifyWith.
func (st *stages) verify(r *dataset.Set, s int) (core.Match, bool) {
	sSet := &st.coll.Sets[s]
	score := st.eng.MatchScore(r, sSet)
	nR, nS := len(r.Elements), len(sSet.Elements)
	thr := st.opts.Delta * float64(nR+nS) / (1 + st.opts.Delta)
	rel := score / (float64(nR+nS) - score)
	if st.opts.Metric == core.SetContainment {
		thr = st.opts.Delta * float64(nR)
		rel = score / float64(nR)
	}
	if score < thr-acceptEps {
		return core.Match{}, false
	}
	return core.Match{Set: s, Relatedness: rel, Score: score}, true
}

// pass is what one staged search pass produced and how long each stage took.
type pass struct {
	sig, collect, nn, verify interval
	sigTokens, probeCost     int64
	candidates, afterCheck   int64
	afterNN, verified        int64
	fullScan                 bool
	matches                  []core.Match
}

// run replays one search pass for r. pairs, when it has room, receives
// element pairs from the collected candidates for the sim kernels.
func (st *stages) run(t *tracer, r *dataset.Set, pairs *[]elemPair) pass {
	var p pass
	st.nR = len(r.Elements)
	prune := st.opts.Delta*float64(st.nR) - pruneSlack

	p.sig.start = t.now()
	sg, _ := st.sel.Generate(st.opts.Scheme, r, signature.Params{
		Delta: st.opts.Delta, Alpha: st.opts.Alpha, Family: st.family,
	}, st.ix)
	p.sig.end = t.now()
	if !sg.Valid {
		// No valid signature (edit similarity, §7.3): compare every
		// acceptable set, all of it verification.
		p.fullScan = true
		p.collect = interval{p.sig.end, p.sig.end}
		p.nn = p.collect
		p.verify.start = p.sig.end
		for s := range st.coll.Sets {
			if !st.accept(int32(s)) {
				continue
			}
			p.verified++
			if m, ok := st.verify(r, s); ok {
				p.matches = append(p.matches, m)
			}
		}
		p.verify.end = t.now()
		return p
	}
	for i := range sg.Elements {
		p.sigTokens += int64(len(sg.Elements[i].Tokens))
	}
	p.probeCost = signature.ProbeCost(sg, st.ix)

	p.collect.start = p.sig.end
	cands, raw := st.cl.Collect(r, sg, st.phi, filter.Options{
		Accept: st.accept, CheckFilter: true, PruneThreshold: prune,
	})
	p.collect.end = t.now()
	p.candidates, p.afterCheck = int64(raw), int64(len(cands))

	// Refinement and verification interleave per candidate in core; the
	// replay runs them as two loops so each has one interval. The NN
	// filter reads only the candidate and the signature, so the split
	// changes no outcome.
	p.nn.start = p.collect.end
	st.floors = filter.AppendNoShareFloors(st.floors, r, sg, st.coll.Mode, st.opts.Alpha)
	survivors := make([]int32, 0, len(cands))
	for _, c := range cands {
		if filter.NNFilter(r, sg, c, st.ns, st.floors, prune) {
			survivors = append(survivors, c.Set)
		}
	}
	p.nn.end = t.now()
	p.afterNN = int64(len(survivors))

	p.verify.start = p.nn.end
	for _, s := range survivors {
		p.verified++
		if m, ok := st.verify(r, int(s)); ok {
			p.matches = append(p.matches, m)
		}
	}
	p.verify.end = t.now()

	if pairs != nil {
		for i := 0; i < len(cands) && i < pairsPerCall && len(*pairs) < simPairs; i++ {
			s := &st.coll.Sets[cands[i].Set].Elements[0]
			e := &r.Elements[i%len(r.Elements)]
			*pairs = append(*pairs, elemPair{
				rRaw: e.Raw, sRaw: s.Raw,
				rTok: slices.Clone(e.Tokens), sTok: s.Tokens,
			})
		}
	}
	return p
}

// elemPair is one ⟨reference element, candidate element⟩ pair kept for the
// sim kernels, detached from the query scratch it came from.
type elemPair struct {
	rRaw, sRaw string
	rTok, sTok []tokens.ID
}

func sameCoreMatches(a, b []core.Match) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = slices.Clone(a), slices.Clone(b)
	bySet := func(x, y core.Match) int { return x.Set - y.Set }
	slices.SortFunc(a, bySet)
	slices.SortFunc(b, bySet)
	return slices.Equal(a, b)
}

// traceWorkload runs the traced replay of one workload and reports every
// per-layer metric; the spans are written to o.spans when it ends.
func traceWorkload(ctx context.Context, sp spec, o options) (*workloadReport, error) {
	raws := sp.Corpus(o.seed, o.scale)
	sets := toSets(raws)
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
	dir, err := os.MkdirTemp(o.tmp, sp.Name+"-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &tracer{t0: time.Now(), rep: rep}

	opts, family, err := coreOptions(sp.Config)
	if err != nil {
		return nil, err
	}

	// dataset, tokens, index: build the layers bottom-up.
	mode := opts.Sim.TokenMode()
	dict := tokens.NewDictionary()
	b0 := time.Now()
	coll := dataset.Build(dict, raws, mode, opts.Q)
	t.set("dataset.build_s", single("s", time.Since(b0).Seconds()))
	t.set("tokens.dict_size", single("count", float64(dict.Size())))
	b0 = time.Now()
	var ix *index.Inverted
	if opts.CompressPostings {
		ix = index.BuildCompressed(coll, opts.PostingCacheBytes)
	} else {
		ix = index.Build(coll)
	}
	t.set("index.build_s", single("s", time.Since(b0).Seconds()))
	eng, err := core.NewEngineFromIndex(ix, opts)
	if err != nil {
		return nil, err
	}
	nShards := max(1, sp.Config.Shards)
	sh, err := shard.New(coll, nShards, opts)
	if err != nil {
		return nil, err
	}

	// The sample: the queries the workload itself issues.
	var queries []silkmoth.Set
	if sp.Kind == kindSearch {
		queries = pickReferences(sets, scaled(sp.RoundOps, o.scale, 20))
	} else {
		queries = sets
	}
	n := min(scaled(sp.TraceSample, o.scale, 16), len(queries))
	sample := make([]silkmoth.Set, n)
	for i, qi := range sampleIndices(len(queries), n, o.seed) {
		sample[i] = queries[qi]
	}
	rep.Info["trace_sample"] = float64(n)

	// Staged replay: query build, then the four stages, per query.
	var qs dataset.QueryScratch
	var r *dataset.Set
	build := func(i int) {
		r = &qs.Build(dict, []dataset.RawSet{{Name: sample[i].Name, Elements: sample[i].Elements}}, mode, opts.Q).Sets[0]
	}
	qbuild := t.timeLevel(n, nil, build)
	t.set("dataset.query_build_ns", qbuild.metric())
	t.set("dataset.query_build_allocs", single("count", qbuild.allocs))

	st := newStages(eng, family)
	passes := make([]pass, n)
	var pairs []elemPair
	staged := t.timeLevel(n, build, func(i int) { passes[i] = st.run(t, r, &pairs) })

	// index: probe the sampled signatures' posting lists on their own.
	var probeNs, cursorNs, postings []float64
	for i := 0; i < n; i++ {
		build(i)
		sg, _ := st.sel.Generate(opts.Scheme, r, signature.Params{Delta: opts.Delta, Alpha: opts.Alpha, Family: family}, ix)
		if !sg.Valid {
			continue
		}
		toks := sg.TokenSet()
		s := t.now()
		for _, tok := range toks {
			_ = ix.List(tok)
		}
		probeNs = append(probeNs, float64(t.now()-s))
		var visited int64
		s = t.now()
		for _, tok := range toks {
			cur := ix.Cursor(tok)
			for {
				if _, ok := cur.Next(); !ok {
					break
				}
				visited++
			}
		}
		cursorNs = append(cursorNs, float64(t.now()-s))
		postings = append(postings, float64(visited))
	}
	t.set("index.probe_ns", summarize("ns", probeNs))
	t.set("index.cursor_ns_per_posting", single("ns", ratio(sum(cursorNs), sum(postings))))

	// core and shard: the same queries through the assembled engines.
	passesBefore := eng.Stats()
	coreAns := make([][]core.Match, n)
	coreLv := t.timeLevel(n, build, func(i int) {
		ms, err := eng.SearchContext(ctx, r)
		if err != nil {
			t.fail("core search %d: %v", i, err)
		}
		coreAns[i] = ms
	})
	coreStats := eng.Stats()
	shBefore := sh.Stats().SearchPasses
	shardLv := t.timeLevel(n, build, func(i int) {
		if _, err := sh.SearchContext(ctx, r); err != nil {
			t.fail("shard search %d: %v", i, err)
		}
	})
	shPasses := sh.Stats().SearchPasses - shBefore

	stageSum := t.stageMetrics(passes, coreAns)
	t.set("core.search_ns", coreLv.metric())
	t.set("core.search_allocs", single("count", coreLv.allocs))
	t.set("core.self_ns", single("ns", coreLv.medianNs()-stageSum))
	t.set("core.full_scan_ratio", single("ratio",
		ratio(float64(coreStats.FullScans-passesBefore.FullScans), float64(coreStats.SearchPasses-passesBefore.SearchPasses))))
	t.set("shard.search_ns", shardLv.metric())
	t.set("shard.self_ns", single("ns", shardLv.medianNs()-coreLv.medianNs()))
	t.set("shard.passes_per_query", single("count", float64(shPasses)/float64(n)))

	storage := ix.Storage()
	t.set("index.postings", single("count", float64(storage.Postings)))
	t.set("index.bytes_per_posting", single("bytes", ratio(float64(storage.HeapBytes+storage.EncodedBytes), float64(storage.Postings))))
	t.set("index.cache_hit_ratio", single("ratio", ratio(float64(storage.CacheHits), float64(storage.CacheHits+storage.CacheMisses))))
	t.set("index.resident_bytes", single("bytes", float64(storage.ResidentBytes)))

	traceSim(t, pairs, opts.Alpha)

	// api: the public engine under the workload's own configuration.
	cfg := sp.Config
	if sp.Durable {
		cfg.DataDir = filepath.Join(dir, "api")
	}
	api, err := silkmoth.NewEngine(sets, cfg)
	if err != nil {
		return nil, err
	}
	defer api.Close()
	apiLv := t.timeLevel(n, nil, func(i int) {
		if _, err := api.SearchContext(ctx, sample[i]); err != nil {
			t.fail("api search %d: %v", i, err)
		}
	})
	topkLv := t.timeLevel(n, nil, func(i int) {
		if _, err := api.SearchTopKContext(ctx, sample[i], topK); err != nil {
			t.fail("api top-k %d: %v", i, err)
		}
	})
	// The sample once more with no clock read between calls: the run
	// tracing is compared with.
	p0 := time.Now()
	for i := range sample {
		if _, err := api.SearchContext(ctx, sample[i]); err != nil {
			t.fail("api search %d: %v", i, err)
		}
	}
	untraced := time.Since(p0)
	child := coreLv
	if nShards > 1 {
		child = shardLv
	}
	t.set("api.search_ns", apiLv.metric())
	t.set("api.search_allocs", single("count", apiLv.allocs))
	t.set("api.self_ns", single("ns", apiLv.medianNs()-qbuild.medianNs()-child.medianNs()))
	t.set("api.topk_ns", topkLv.metric())

	handlerLv, err := traceServer(ctx, t, sp, api, cfg, sets, sample, o)
	if err != nil {
		return nil, err
	}
	t.set("server.self_ns", single("ns", handlerLv.medianNs()-apiLv.medianNs()))

	// What tracing costs, as queries answered per second: the untimed pass
	// against the five calls per query the span tree needs.
	traced := staged.wall + coreLv.wall + shardLv.wall + apiLv.wall + handlerLv.wall
	t.set("bench.trace_overhead_ratio", single("ratio", ratio(untraced.Seconds(), traced.Seconds())))

	if err := traceWAL(t, coll, ix, sets, filepath.Join(dir, "wal")); err != nil {
		return nil, err
	}
	traceCoreMutations(t, eng, o)
	if err := traceReopen(ctx, t, sp, sets, sample[0], filepath.Join(dir, "twin")); err != nil {
		return nil, err
	}

	spans := buildSpans(sample, handlerLv, apiLv, qbuild, shardLv, coreLv, passes)
	if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
		return nil, err
	}
	if err := writeJSONFile(o.spans, spans); err != nil {
		return nil, err
	}
	rep.Info["spans"] = float64(len(spans))
	return rep, nil
}

// stageMetrics checks every staged pass against core's answer for the same
// query, reports the signature, filter and matching metrics, and returns
// the sum of the four stages' median times.
func (t *tracer) stageMetrics(passes []pass, coreAns [][]core.Match) float64 {
	var sigNs, collectNs, nnNs, verifyNs []float64
	var sigTokens, probeCost, cands, afterCheck, afterNN, verified, results float64
	d := newDigest()
	for i := range passes {
		p := &passes[i]
		t.rep.Attempted++
		if !sameCoreMatches(p.matches, coreAns[i]) {
			t.fail("staged replay of query %d finds %d matches, core search %d", i, len(p.matches), len(coreAns[i]))
		}
		d.num(uint64(len(p.matches)))
		for _, m := range p.matches {
			d.num(uint64(m.Set))
			d.num(math.Float64bits(m.Relatedness))
		}
		sigNs = append(sigNs, float64(p.sig.ns()))
		collectNs = append(collectNs, float64(p.collect.ns()))
		nnNs = append(nnNs, float64(p.nn.ns()))
		verifyNs = append(verifyNs, float64(p.verify.ns()))
		sigTokens += float64(p.sigTokens)
		probeCost += float64(p.probeCost)
		cands += float64(p.candidates)
		afterCheck += float64(p.afterCheck)
		afterNN += float64(p.afterNN)
		verified += float64(p.verified)
		results += float64(len(p.matches))
	}
	t.rep.ResultDigest = d.sum()
	n := float64(len(passes))
	t.set("signature.generate_ns", summarize("ns", sigNs))
	t.set("signature.tokens_per_query", single("count", sigTokens/n))
	t.set("signature.probe_cost", single("count", probeCost/n))
	t.set("filter.collect_ns", summarize("ns", collectNs))
	t.set("filter.candidates_per_query", single("count", cands/n))
	t.set("filter.check_pruned_ratio", single("ratio", ratio(cands-afterCheck, cands)))
	t.set("filter.nn_ns", summarize("ns", nnNs))
	t.set("filter.nn_ns_per_candidate", single("ns", ratio(sum(nnNs), afterCheck)))
	t.set("filter.nn_pruned_ratio", single("ratio", ratio(afterCheck-afterNN, afterCheck)))
	t.set("matching.verify_ns_per_pair", single("ns", ratio(sum(verifyNs), verified)))
	t.set("matching.verified_per_query", single("count", verified/n))
	t.set("matching.useful_ratio", single("ratio", ratio(results, verified)))
	if total := sum(sigNs) + sum(collectNs) + sum(nnNs) + sum(verifyNs); total > 0 {
		t.rep.Info["share_signature"] = sum(sigNs) / total
		t.rep.Info["share_collect"] = sum(collectNs) / total
		t.rep.Info["share_nn"] = sum(nnNs) / total
		t.rep.Info["share_verify"] = sum(verifyNs) / total
	}
	return median(sigNs) + median(collectNs) + median(nnNs) + median(verifyNs)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, and 0 when the layer did no work to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceSim times the two element-similarity kernels on the sampled pairs,
// whichever of them the workload's φ uses.
func traceSim(t *tracer, pairs []elemPair, alpha float64) {
	if len(pairs) == 0 {
		t.set("sim.eds_ns_per_call", single("ns", 0))
		t.set("sim.jaccard_ns_per_call", single("ns", 0))
		return
	}
	var sink float64
	s := time.Now()
	for i := range pairs {
		sink += sim.EdsAlpha(pairs[i].rRaw, pairs[i].sRaw, alpha)
	}
	t.set("sim.eds_ns_per_call", single("ns", float64(time.Since(s).Nanoseconds())/float64(len(pairs))))
	s = time.Now()
	for i := range pairs {
		sink += sim.Alpha(sim.JaccardSorted(pairs[i].rTok, pairs[i].sTok), alpha)
	}
	t.set("sim.jaccard_ns_per_call", single("ns", float64(time.Since(s).Nanoseconds())/float64(len(pairs))))
	t.rep.Info["sim_pairs"] = float64(len(pairs))
	t.rep.Info["sim_checksum"] = sink
}

// traceServer times the serving layer over api: the handler alone through a
// recorder with the cache off and then warm, the loopback round trip, and
// two short closed-loop load phases for the cache hit ratio, write latency
// and the longest read stall. It ends with the api layer's own mutation
// timings, which need ids the write phase left live, and returns the
// uncached handler level.
func traceServer(ctx context.Context, t *tracer, sp spec, api *silkmoth.Engine, cfg silkmoth.Config, sets, sample []silkmoth.Set, o options) (*level, error) {
	n := len(sample)
	frags, err := setFragments(sample)
	if err != nil {
		return nil, err
	}
	search := func(h http.Handler, body []byte, path string) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		t.rep.Attempted++
		if rec.Code != http.StatusOK {
			t.fail("%s answered %d", path, rec.Code)
		}
	}
	bodies := make([][]byte, n)
	for i, f := range frags {
		bodies[i] = slices.Concat([]byte(`{"set":`), f, []byte(`}`))
	}

	cold := server.New(api, cfg, server.Options{CacheSize: -1})
	handlerLv := t.timeLevel(n, nil, func(i int) { search(cold, bodies[i], "/v1/search") })
	t.set("server.handler_ns", handlerLv.metric())
	t.set("server.handler_allocs", single("count", handlerLv.allocs))

	var batches [][]byte
	for i := 0; i+batchSize <= n; i += batchSize {
		batches = append(batches, slices.Concat([]byte(`{"sets":[`), bytes.Join(frags[i:i+batchSize], []byte(",")), []byte(`]}`)))
	}
	batchLv := t.timeLevel(len(batches), nil, func(i int) { search(cold, batches[i], "/v1/search/batch") })
	t.set("server.batch_ns_per_query", single("ns", batchLv.medianNs()/batchSize))

	// Loopback round trip, cache off, one client.
	sv, err := startServing(api, cfg, server.Options{CacheSize: -1})
	if err != nil {
		return nil, err
	}
	cli := newClient(sv.base)
	httpLv := t.timeLevel(n, func(i int) { cli.searchBody(frags[i]) }, func(i int) {
		code, err := cli.do(ctx, http.MethodPost, "/v1/search")
		t.rep.Attempted++
		if err != nil || code != http.StatusOK {
			t.fail("loopback search %d: status %d: %v", i, code, err)
		}
	})
	cli.closeIdle()
	if err := sv.stop(); err != nil {
		return nil, err
	}
	t.set("server.http_ns", httpLv.metric())

	// Warm cache: the second pass over a sample that fits the cache hits
	// on every request.
	warm := server.New(api, cfg, server.Options{})
	nc := min(cachedSample, n)
	for i := 0; i < nc; i++ {
		search(warm, bodies[i], "/v1/search")
	}
	cachedLv := t.timeLevel(nc, nil, func(i int) { search(warm, bodies[i], "/v1/search") })
	t.set("server.cached_ns", cachedLv.metric())

	// Load phase A: the workload's own read mix from a closed-loop client,
	// for the result cache's hit ratio under it.
	ops := min(loadOps, 8*n)
	reads, err := newServeSearchLoad(built{eng: api, cfg: cfg}, sets, o, ops, sp.Kind != kindServeSearch)
	if err != nil {
		return nil, err
	}
	rr := reads.round(ctx, 0) // fills the cache
	hits0, misses0, err := cacheCounters(ctx, reads.cli)
	if err == nil {
		rr1 := reads.round(ctx, 1)
		rr.attempted, rr.failed = rr.attempted+rr1.attempted, rr.failed+rr1.failed
		var hits, misses int64
		hits, misses, err = cacheCounters(ctx, reads.cli)
		t.set("server.cache_hit_ratio", single("ratio", ratio(float64(hits-hits0), float64(hits-hits0+misses-misses0))))
	}
	t.rep.Attempted += rr.attempted
	t.rep.Failed += rr.failed
	if err := errors.Join(err, reads.stopServing()); err != nil {
		return nil, err
	}

	// Load phase B: reads beside writes, for write latency and the
	// longest a read waited behind the write lock or a compaction.
	fresh := toSets(sp.Corpus(o.seed+freshSeedOffset, o.scale))
	mixed, err := newServeMixedLoad(built{eng: api, cfg: cfg}, sets, fresh, o, ops)
	if err != nil {
		return nil, err
	}
	rr = mixed.round(ctx, 0)
	t.rep.Attempted += rr.attempted
	t.rep.Failed += rr.failed
	if len(rr.writeNs) == 0 || len(rr.queryNs) == 0 {
		t.fail("mixed load phase made %d writes and %d reads", len(rr.writeNs), len(rr.queryNs))
	} else {
		slices.Sort(rr.writeNs)
		t.set("server.write_p50_us", single("us", float64(percentile(rr.writeNs, 0.50))/1e3))
		t.set("server.write_p99_us", single("us", float64(percentile(rr.writeNs, 0.99))/1e3))
		t.set("server.stall_max_ms", single("ms", float64(slices.Max(rr.queryNs))/1e6))
	}
	if err := mixed.stopServing(); err != nil {
		return nil, err
	}

	// api mutations, on ids the mixed phase left live.
	own := mixed.cli
	k := min(mutations, len(own.own)/2, len(fresh))
	addLv := t.timeLevel(k, nil, func(i int) {
		if err := api.Add([]silkmoth.Set{{Name: fmt.Sprintf("trace-add-%d", i), Elements: fresh[i].Elements}}); err != nil {
			t.fail("api add: %v", err)
		}
	})
	var id int
	updLv := t.timeLevel(k, func(int) { id = own.takeOwn() }, func(i int) {
		if _, err := api.Update(id, silkmoth.Set{Name: fmt.Sprintf("trace-upd-%d", i), Elements: fresh[i].Elements}); err != nil {
			t.fail("api update %d: %v", id, err)
		}
	})
	delLv := t.timeLevel(k, func(int) { id = own.takeOwn() }, func(int) {
		if err := api.Delete(id); err != nil {
			t.fail("api delete %d: %v", id, err)
		}
	})
	t.set("api.add_ns", addLv.metric())
	t.set("api.update_ns", updLv.metric())
	t.set("api.delete_ns", delLv.metric())
	return handlerLv, nil
}

// cacheCounters reads the result cache's hit and miss counts off /v1/stats.
func cacheCounters(ctx context.Context, c *client) (hits, misses int64, err error) {
	c.body.Reset()
	code, err := c.do(ctx, http.MethodGet, "/v1/stats")
	if err != nil {
		return 0, 0, err
	}
	var st struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("/v1/stats answered %d", code)
	}
	if err := json.Unmarshal(c.resp.Bytes(), &st); err != nil {
		return 0, 0, err
	}
	return st.Cache.Hits, st.Cache.Misses, nil
}

// traceCoreMutations times core's tombstoning and one compaction. It runs
// last on the core engine, which it leaves without the deleted sets.
func traceCoreMutations(t *tracer, eng *core.Engine, o options) {
	ids := sampleIndices(len(eng.Collection().Sets), mutations, o.seed+1)
	delLv := t.timeLevel(len(ids), nil, func(i int) {
		if err := eng.Delete(ids[i]); err != nil {
			t.fail("core delete %d: %v", ids[i], err)
		}
	})
	t.set("core.delete_ns", delLv.metric())
	s := time.Now()
	eng.Compact()
	t.set("core.compact_s", single("s", time.Since(s).Seconds()))
}

// countingFS wraps a wal.FS and counts what the store asks of the disk.
type countingFS struct {
	wal.FS
	bytes, syncs int64
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes += int64(n)
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

func (c *countingFS) Create(name string) (wal.File, error) {
	f, err := c.FS.Create(name)
	return countingFile{f, c}, err
}

func (c *countingFS) OpenAppend(name string) (wal.File, error) {
	f, err := c.FS.OpenAppend(name)
	return countingFile{f, c}, err
}

func (c *countingFS) SyncDir() error {
	c.syncs++
	return c.FS.SyncDir()
}

// traceWAL times the bare snapshot/WAL store: one snapshot of the built
// collection and index, appends of single-set records, and their replay.
func traceWAL(t *tracer, coll *dataset.Collection, ix *index.Inverted, sets []silkmoth.Set, dir string) error {
	dfs, err := wal.DirFS(dir)
	if err != nil {
		return err
	}
	cfs := &countingFS{FS: dfs}
	st, err := wal.Open(cfs)
	if err != nil {
		return err
	}
	s := time.Now()
	err = st.WriteSnapshot(func(w io.Writer) error {
		return dataset.SaveSnapshot(w, &dataset.SnapshotData{Coll: coll, Source: ix})
	})
	if err != nil {
		return errors.Join(err, st.Close())
	}
	t.set("wal.snapshot_s", single("s", time.Since(s).Seconds()))
	t.set("wal.snapshot_bytes", single("bytes", float64(cfs.bytes)))

	cfs.bytes, cfs.syncs = 0, 0
	k := min(walRecords, len(sets))
	appendLv := t.timeLevel(k, nil, func(i int) {
		rec := wal.Record{Op: wal.OpAdd, Sets: []dataset.RawSet{{Name: sets[i].Name, Elements: sets[i].Elements}}}
		switch i % 3 {
		case 1:
			rec.Op, rec.ID = wal.OpUpdate, i
		case 2:
			rec = wal.Record{Op: wal.OpDelete, ID: i}
		}
		if err := st.Append(&rec); err != nil {
			t.fail("wal append: %v", err)
		}
	})
	t.set("wal.append_ns", appendLv.metric())
	t.set("wal.bytes_per_record", single("bytes", float64(cfs.bytes)/float64(k)))
	t.set("wal.syncs_per_record", single("count", float64(cfs.syncs)/float64(k)))
	if err := st.Close(); err != nil {
		return err
	}

	st, err = wal.Open(cfs)
	if err != nil {
		return err
	}
	_, m, err := st.RecoverData(func([]byte) error { return nil })
	if err != nil {
		return errors.Join(err, st.Close())
	}
	if m != nil {
		if err := m.Close(); err != nil {
			return errors.Join(err, st.Close())
		}
	}
	s = time.Now()
	replayed, _, err := st.ReplayWAL(func(*wal.Record) error { return nil })
	took := time.Since(s).Seconds()
	if err != nil {
		return errors.Join(err, st.Close())
	}
	t.rep.Attempted++
	if replayed != k {
		t.fail("wal replayed %d of %d appended records", replayed, k)
	}
	t.set("wal.replay_records_per_s", single("1/s", ratio(float64(replayed), took)))
	return st.Close()
}

// traceReopen measures recovery on a durable twin of the workload's engine:
// build it, write to it, drop it without a snapshot, and time NewEngine over
// its directory until the first query returns.
func traceReopen(ctx context.Context, t *tracer, sp spec, sets []silkmoth.Set, q silkmoth.Set, dir string) error {
	cfg := sp.Config
	cfg.DataDir = dir
	twin, err := silkmoth.NewEngine(sets, cfg)
	if err != nil {
		return err
	}
	k := min(mutations, len(sets)/4)
	for i := 0; i < k; i++ {
		add := silkmoth.Set{Name: fmt.Sprintf("twin-%d", i), Elements: sets[i].Elements}
		err = twin.Add([]silkmoth.Set{add})
		if err == nil {
			_, err = twin.Update(2*i, add)
		}
		if err == nil {
			err = twin.Delete(2*i + 1)
		}
		if err != nil {
			return errors.Join(err, twin.Close())
		}
	}
	live := twin.Len()
	want, err := twin.SearchContext(ctx, q)
	if err != nil {
		return errors.Join(err, twin.Close())
	}
	if err := twin.Close(); err != nil {
		return err
	}

	s := time.Now()
	twin, err = silkmoth.NewEngine(nil, cfg)
	if err != nil {
		return err
	}
	defer twin.Close()
	got, err := twin.SearchContext(ctx, q)
	if err != nil {
		return err
	}
	t.set("api.reopen_s", single("s", time.Since(s).Seconds()))
	t.rep.Attempted++
	if twin.Len() != live || !slices.Equal(canonical(got), canonical(want)) {
		t.fail("reopened twin has %d live sets and %d matches, had %d and %d", twin.Len(), len(got), live, len(want))
	}

	var disk, user int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	// Ids below 2k are all gone (even ones replaced, odd ones deleted);
	// what is live is the rest of the corpus plus an added and a replacing
	// copy of each of the first k sets.
	for i, s := range sets {
		n := 0
		for _, e := range s.Elements {
			n += len(e)
		}
		switch {
		case i < k:
			user += int64(2 * n)
		case i >= 2*k:
			user += int64(n)
		}
	}
	t.set("wal.disk_bytes_per_user_byte", single("ratio", ratio(float64(disk), float64(user))))
	return nil
}

// buildSpans assembles the per-query span trees from the levels' intervals.
func buildSpans(sample []silkmoth.Set, handler, api, qbuild, sh, cr *level, passes []pass) []span {
	spans := make([]span, 0, 9*len(sample))
	add := func(parent int, req, name string, iv interval, counts map[string]int64) int {
		id := len(spans) + 1
		spans = append(spans, span{ID: id, Parent: parent, Request: req, Name: name, StartNs: iv.start, EndNs: iv.end, Counts: counts})
		return id
	}
	for i := range sample {
		req := fmt.Sprintf("q%05d", i)
		p := &passes[i]
		h := add(0, req, "server.handler", handler.calls[i], nil)
		a := add(h, req, "api.search", api.calls[i], map[string]int64{"results": int64(len(p.matches))})
		add(a, req, "dataset.query_build", qbuild.calls[i], map[string]int64{"elements": int64(len(sample[i].Elements))})
		s := add(a, req, "shard.search", sh.calls[i], nil)
		c := add(s, req, "core.search", cr.calls[i], map[string]int64{"results": int64(len(p.matches))})
		add(c, req, "signature.generate", p.sig, map[string]int64{"signature_tokens": p.sigTokens, "probe_cost": p.probeCost})
		add(c, req, "filter.collect", p.collect, map[string]int64{"candidates": p.candidates, "check_pruned": p.candidates - p.afterCheck})
		add(c, req, "filter.nn", p.nn, map[string]int64{"nn_pruned": p.afterCheck - p.afterNN})
		add(c, req, "matching.verify", p.verify, map[string]int64{"verified": p.verified, "results": int64(len(p.matches))})
	}
	return spans
}
