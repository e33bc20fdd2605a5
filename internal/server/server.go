// Package server exposes a silkmoth.Engine over HTTP/JSON: the related-set
// primitives of the paper (search, top-k, discovery, pairwise compare) plus
// the full collection lifecycle — incremental indexing, per-set delete and
// update with optimistic concurrency (if_generation, 409 on conflict) —
// health, stats, and Prometheus-style metrics. It is the serving layer
// behind cmd/silkmothd.
//
// Query endpoints share one bounded worker pool (a semaphore over the
// engine) and an LRU result cache holding one entry per query, keyed on the
// query's full identity: its kind, metric, δ, α, the options that shape the
// answer, and the query sets' raw elements. The four search routes —
// /v1/search, /v1/topk, /v1/explain and /v1/search/batch — decode into
// search items and share one path to the engine (serveSearch), so a batch
// item is a query like any other and shares its entry with the same
// /v1/search. Every request
// carries a context with the configured timeout; cancellation propagates
// into the engine's search and discovery loops, so an abandoned request
// stops burning matching computations.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"silkmoth"
	"silkmoth/internal/lru"
	"silkmoth/internal/obs"
)

// Options configures the serving layer. The zero value serves with sane
// defaults: a 30-second request timeout, 2×GOMAXPROCS in-flight queries,
// and a 1024-entry result cache.
type Options struct {
	// RequestTimeout bounds each query request's execution, including
	// time spent waiting for a worker slot. 0 means the 30s default;
	// negative disables the timeout.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently executing query requests; excess
	// requests wait (within their timeout) for a slot. 0 means
	// 2×GOMAXPROCS; negative means 1.
	MaxInFlight int
	// CacheSize is the result cache's entry capacity. 0 means 1024;
	// negative disables caching.
	CacheSize int
	// MaxBodyBytes bounds request body size. 0 means 64 MiB.
	MaxBodyBytes int64
	// DisableExplain turns off execution introspection: /v1/explain
	// answers 404 and explain request fields are rejected with 400.
	// Explained responses bypass the result cache (their wall-time field
	// would otherwise go stale), so operators fronting hot repeated
	// workloads may prefer them off. Server-side slow-query capture is
	// unaffected — it never changes response bodies.
	DisableExplain bool
	// LogWriter receives the server's structured JSON logs (access lines
	// and slow-query funnels), one object per line. Nil disables logging.
	LogWriter io.Writer
	// AccessLog emits one JSON line per request to LogWriter: request id,
	// method, path, route label, status, latency.
	AccessLog bool
	// SlowQueryThreshold emits a query's full execution funnel — chosen
	// scheme, per-stage survivor counts, per-stage nanoseconds, shard
	// count — as one JSON line on LogWriter whenever its engine time
	// meets the threshold. 0 disables threshold-triggered capture.
	SlowQueryThreshold time.Duration
	// SlowQuerySample emits the same funnel line for one in every N
	// queries regardless of latency, so the log always carries a baseline
	// to compare slow outliers against. 0 disables sampling.
	SlowQuerySample int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — CPU and
	// heap profiles, goroutine dumps, execution traces. Off by default:
	// profiles can leak operational detail, so exposure is opt-in.
	EnablePprof bool
}

func (o Options) normalize() Options {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if o.MaxInFlight < 1 {
		o.MaxInFlight = 1
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	return o
}

const (
	// maxCompareElements bounds each set /v1/compare accepts. Unlike search
	// passes — which hit cancellation checks between candidates — one
	// compare is a single O(n³) matching the context cannot interrupt, so
	// its size must be bounded up front.
	maxCompareElements = 512
	// maxBatchSize bounds the sets /v1/search/batch accepts; a larger batch
	// is rejected with 413 before any work starts.
	maxBatchSize = 256
)

// Server is the HTTP serving layer over one engine. Create with New and
// mount anywhere an http.Handler goes.
type Server struct {
	eng  *silkmoth.Engine
	cfg  silkmoth.Config
	opts Options
	sem  chan struct{}
	// cache holds encoded answers, one entry per query, budgeted in entries
	// and nil when caching is off. Keys encode the query's full identity
	// (appendKey), so one cache serves every route; every mutation empties
	// it, since any changed collection can change any result.
	cache *lru.Cache[string, []byte]
	met   *metrics
	log   *obs.Logger
	mux   *http.ServeMux
	// slowSeq drives 1-in-N slow-query sampling across all query
	// endpoints.
	slowSeq int64
	// gen is bumped by every mutation (Add, Delete, Update) and baked
	// into cache keys, so a result computed against an older collection
	// can never be served after the collection changes — even if it is
	// stored late. It doubles as the optimistic-concurrency token for
	// conditional mutations (the if_generation conflict check).
	gen int64
	// mutMu serializes mutations so the if_generation check-then-apply
	// is atomic: between a conditional mutation's generation check and
	// its generation bump, no other mutation can slip in.
	mutMu sync.Mutex
}

// New builds a server over eng. cfg must be the configuration eng was built
// with; the compare endpoint and the stats report read it.
func New(eng *silkmoth.Engine, cfg silkmoth.Config, opts Options) *Server {
	opts = opts.normalize()
	s := &Server{
		eng:  eng,
		cfg:  cfg,
		opts: opts,
		sem:  make(chan struct{}, opts.MaxInFlight),
		met:  newMetrics(),
	}
	if opts.CacheSize > 0 {
		s.cache = lru.New[string](int64(opts.CacheSize), func([]byte) int64 { return 1 })
	}
	if opts.LogWriter != nil {
		s.log = obs.NewLogger(opts.LogWriter)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/search/batch", s.handleSearchBatch)
	mux.HandleFunc("POST /v1/topk", s.handleTopK)
	mux.HandleFunc("POST /v1/discover-against", s.handleDiscoverAgainst)
	mux.HandleFunc("GET /v1/explain", s.handleExplain)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("POST /v1/sets", s.handleAddSets)
	mux.HandleFunc("DELETE /v1/sets/{id}", s.handleDeleteSet)
	mux.HandleFunc("PUT /v1/sets/{id}", s.handleUpdateSet)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// knownPaths bounds the metrics label space: anything else (scanners,
// typos) is aggregated under "other" so perRoute cannot grow without
// bound on a long-running server.
var knownPaths = map[string]bool{
	"/v1/search":           true,
	"/v1/search/batch":     true,
	"/v1/topk":             true,
	"/v1/discover-against": true,
	"/v1/explain":          true,
	"/v1/compare":          true,
	"/v1/sets":             true,
	"/v1/sets/{id}":        true,
	"/v1/snapshot":         true,
	"/v1/stats":            true,
	"/v1/version":          true,
	"/healthz":             true,
	"/metrics":             true,
	"/debug/pprof":         true,
}

// otherRoute is the aggregate label for paths outside knownPaths.
const otherRoute = "other"

// metricPath collapses a request path to its bounded route label: set ids
// and pprof profile names fold into one label each, and anything unmatched
// (scanners, typos) aggregates under otherRoute.
func metricPath(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/sets/"); ok && rest != "" && !strings.Contains(rest, "/") {
		return "/v1/sets/{id}"
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	if !knownPaths[path] {
		return otherRoute
	}
	return path
}

// ridKey carries the request id through the request context.
type ridKey struct{}

// requestID returns the id ServeHTTP assigned to this request.
func requestID(r *http.Request) string {
	rid, _ := r.Context().Value(ridKey{}).(string)
	return rid
}

// ServeHTTP dispatches to the API routes. Every request gets an id — the
// caller's X-Request-Id when it is well-formed, a fresh one otherwise —
// echoed in the response header and carried through the context so log
// lines from any layer correlate. Per-route request counts and latency are
// recorded lock-free, and an access line is emitted when configured.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := r.Header.Get("X-Request-Id")
	if !obs.ValidRequestID(rid) {
		rid = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", rid)
	r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	path := metricPath(r.URL.Path)
	elapsed := time.Since(start)
	s.met.observe(path, rec.code, elapsed)
	if s.opts.AccessLog && s.log.Enabled() {
		s.log.EmitRecord("access", accessLine{
			RequestID: rid,
			Method:    r.Method,
			Path:      r.URL.Path,
			Route:     path,
			Code:      rec.code,
			ElapsedUS: elapsed.Microseconds(),
		})
	}
}

// accessLine is the access log's record of one request, after ts and event.
type accessLine struct {
	RequestID string `json:"request_id"`
	Method    string `json:"method"`
	Path      string `json:"path"`
	Route     string `json:"route"`
	Code      int    `json:"code"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// ---- wire types ----

// SetJSON is a set on the wire.
type SetJSON struct {
	Name     string   `json:"name,omitempty"`
	Elements []string `json:"elements"`
}

func (s SetJSON) toSet() silkmoth.Set {
	return silkmoth.Set{Name: s.Name, Elements: s.Elements}
}

// MatchJSON is one search result on the wire.
type MatchJSON struct {
	Index         int     `json:"index"`
	Name          string  `json:"name"`
	Relatedness   float64 `json:"relatedness"`
	MatchingScore float64 `json:"matching_score"`
}

// PairJSON is one discovery result on the wire.
type PairJSON struct {
	R             int     `json:"r"`
	S             int     `json:"s"`
	RName         string  `json:"r_name"`
	SName         string  `json:"s_name"`
	Relatedness   float64 `json:"relatedness"`
	MatchingScore float64 `json:"matching_score"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func matchesJSON(ms []silkmoth.Match) []MatchJSON {
	out := make([]MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = MatchJSON{Index: m.Index, Name: m.Name, Relatedness: m.Relatedness, MatchingScore: m.MatchingScore}
	}
	return out
}

func pairsJSON(ps []silkmoth.Pair) []PairJSON {
	out := make([]PairJSON, len(ps))
	for i, p := range ps {
		out[i] = PairJSON{R: p.R, S: p.S, RName: p.RName, SName: p.SName, Relatedness: p.Relatedness, MatchingScore: p.MatchingScore}
	}
	return out
}

// ---- plumbing ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"internal: encoding response"}`, http.StatusInternalServerError)
		return
	}
	writeJSONBytes(w, code, body)
}

func writeJSONBytes(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
	w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeDecodeErr maps a request-decoding failure to its status: 413 when
// the body blew the MaxBodyBytes limit (matching the oversized-batch
// path), 400 for everything malformed.
func writeDecodeErr(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// decodeBody unmarshals the request body into v, enforcing the body size
// limit. It returns a client-facing error for malformed input.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if len(data) == 0 {
		return errors.New("empty request body")
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("malformed JSON: %w", err)
	}
	return nil
}

// queryCtx applies the configured request timeout to the request context.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	}
	return r.Context(), func() {}
}

// acquire takes a worker-pool slot, waiting within ctx. It reports whether
// the slot was obtained; on false the response has already been written and
// the rejection charged to the pool (the slot never freed within the
// request's budget — however the wait ended, the pool was the bottleneck).
func (s *Server) acquire(ctx context.Context, w http.ResponseWriter) bool {
	s.met.enterQueue()
	defer s.met.exitQueue()
	select {
	case s.sem <- struct{}{}:
		s.met.addInflight(1)
		return true
	case <-ctx.Done():
		s.writeCtxErr(w, causePoolFull, ctx.Err())
		return false
	}
}

func (s *Server) release() {
	s.met.addInflight(-1)
	<-s.sem
}

// badInput marks a call's error as its request's fault: a 400.
type badInput struct{ error }

// writeQueryErr reports a query the engine did not answer. A posting
// container that failed to decode is the server's fault — its index is
// corrupt and the honest answer is none — so it is a 500; a badInput is a
// 400; every other error a query returns is its context's, charged to
// whichever of the deadline and the client ended it.
func (s *Server) writeQueryErr(w http.ResponseWriter, err error) {
	if errors.Is(err, silkmoth.ErrPostingDecode) {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if errors.As(err, new(badInput)) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cause := causeCancelled
	if errors.Is(err, context.DeadlineExceeded) {
		cause = causeTimeout
	}
	s.writeCtxErr(w, cause, err)
}

// writeCtxErr reports a request its context ended, charging the rejection
// to cause: 504 once the deadline has fired, 503 when the client went away.
func (s *Server) writeCtxErr(w http.ResponseWriter, cause string, err error) {
	s.met.reject(cause)
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, "request timed out")
		return
	}
	writeError(w, http.StatusServiceUnavailable, "request cancelled")
}

// bufPool recycles the per-request buffers cache keys and batch response
// bodies are built in.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns an empty pooled buffer; hand it back with putBuf once
// nothing refers to its bytes.
func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf returns b to the pool, except a buffer some huge request grew,
// which would otherwise stay pinned.
func putBuf(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// appendKey appends the result-cache key of one query to b: its kind
// ("search" on every search route), the server generation, the engine's
// identity (metric, similarity, δ, α), everything else that changes the
// encoded answer — k (the truncation bound, 0 for none), the pinned scheme,
// whether the answer reports the scheme it probed with, a δ override (0 for
// none) — and then every query set's elements, all length-prefixed so
// distinct queries can never collide. Set names are left out: no search
// answer depends on them (handleDiscoverAgainst appends its own).
//
//silkmoth:hotpath
func (s *Server) appendKey(b []byte, kind string, k int, scheme string, reportsScheme bool, delta float64, sets ...SetJSON) []byte {
	b = append(b, kind...)
	b = append(b, 0)
	b = strconv.AppendInt(b, atomic.LoadInt64(&s.gen), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(s.cfg.Metric), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(s.cfg.Similarity), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, s.cfg.Delta, 'g', -1, 64)
	b = append(b, '|')
	b = strconv.AppendFloat(b, s.cfg.Alpha, 'g', -1, 64)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(scheme)), 10)
	b = append(b, ':')
	b = append(b, scheme...)
	b = strconv.AppendBool(b, reportsScheme)
	b = append(b, '|')
	b = strconv.AppendFloat(b, delta, 'g', -1, 64)
	for _, set := range sets {
		b = append(b, 0)
		b = strconv.AppendInt(b, int64(len(set.Elements)), 10)
		for _, el := range set.Elements {
			b = append(b, 0)
			b = strconv.AppendInt(b, int64(len(el)), 10)
			b = append(b, ':')
			b = append(b, el...)
		}
	}
	return b
}

// serveCall answers a one-call route, /v1/discover-against or /v1/compare,
// whose answer is cached under key: a hit is written as stored; a miss takes
// the request's deadline and a worker slot, runs the call, and encodes,
// stores and writes its answer.
func (s *Server) serveCall(w http.ResponseWriter, r *http.Request, key []byte, run func(context.Context) (any, error)) {
	if body, ok := lru.GetBytes(s.cache, key); ok {
		s.met.cacheHit()
		w.Header().Set("X-Silkmoth-Cache", "hit")
		writeJSONBytes(w, http.StatusOK, body)
		return
	}
	s.met.cacheMiss()
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	if !s.acquire(ctx, w) {
		return
	}
	defer s.release()
	v, err := run(ctx)
	if err != nil {
		s.writeQueryErr(w, err)
		return
	}
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal: encoding response")
		return
	}
	lru.PutBytes(s.cache, key, body)
	w.Header().Set("X-Silkmoth-Cache", "miss")
	writeJSONBytes(w, http.StatusOK, body)
}

// ---- handlers ----

type discoverRequest struct {
	Sets []SetJSON `json:"sets"`
}

type discoverResponse struct {
	Pairs []PairJSON `json:"pairs"`
}

func (s *Server) handleDiscoverAgainst(w http.ResponseWriter, r *http.Request) {
	var req discoverRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.Sets) == 0 {
		writeError(w, http.StatusBadRequest, "sets must be non-empty")
		return
	}

	kb := getBuf()
	defer putBuf(kb)
	*kb = s.appendKey(*kb, "discover-against", 0, "", false, 0, req.Sets...)
	// Unlike a search's answer, a discovery's names each pair's reference
	// (r_name), so its key carries the reference names too.
	for _, set := range req.Sets {
		*kb = append(*kb, 1)
		*kb = strconv.AppendInt(*kb, int64(len(set.Name)), 10)
		*kb = append(*kb, ':')
		*kb = append(*kb, set.Name...)
	}
	s.serveCall(w, r, *kb, func(ctx context.Context) (any, error) {
		refs := make([]silkmoth.Set, len(req.Sets))
		for i, set := range req.Sets {
			refs[i] = set.toSet()
		}
		var ex silkmoth.Explain
		var opts []silkmoth.QueryOption
		capture := s.captureSlow()
		if capture {
			opts = append(opts, silkmoth.WithExplain(&ex))
		}
		ps, err := s.eng.DiscoverAgainstContext(ctx, refs, opts...)
		if err != nil {
			return nil, err
		}
		if capture {
			s.logSlow(r, "/v1/discover-against", &ex, -1)
		}
		return discoverResponse{Pairs: pairsJSON(ps)}, nil
	})
}

type compareRequest struct {
	R SetJSON `json:"r"`
	S SetJSON `json:"s"`
}

type compareResponse struct {
	Relatedness float64 `json:"relatedness"`
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.R.Elements) == 0 || len(req.S.Elements) == 0 {
		writeError(w, http.StatusBadRequest, "r.elements and s.elements must be non-empty")
		return
	}
	if len(req.R.Elements) > maxCompareElements || len(req.S.Elements) > maxCompareElements {
		writeError(w, http.StatusBadRequest, "compare sets are limited to %d elements each", maxCompareElements)
		return
	}

	kb := getBuf()
	defer putBuf(kb)
	*kb = s.appendKey(*kb, "compare", 0, "", false, 0, req.R, req.S)
	s.serveCall(w, r, *kb, func(ctx context.Context) (any, error) {
		// One matching cannot be interrupted: a request whose context ended
		// while it waited for a slot does not start one.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rel, err := silkmoth.Compare(req.R.toSet(), req.S.toSet(), s.cfg)
		if err != nil {
			return nil, badInput{err}
		}
		return compareResponse{Relatedness: rel}, nil
	})
}

type addSetsRequest struct {
	Sets []SetJSON `json:"sets"`
}

type addSetsResponse struct {
	Added      int   `json:"added"`
	Total      int   `json:"total"`
	Generation int64 `json:"generation"`
}

func (s *Server) handleAddSets(w http.ResponseWriter, r *http.Request) {
	var req addSetsRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.Sets) == 0 {
		writeError(w, http.StatusBadRequest, "sets must be non-empty")
		return
	}
	for i, set := range req.Sets {
		if len(set.Elements) == 0 {
			writeError(w, http.StatusBadRequest, "sets[%d].elements must be non-empty", i)
			return
		}
	}

	add := make([]silkmoth.Set, len(req.Sets))
	for i, set := range req.Sets {
		add[i] = set.toSet()
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if !s.applyMutation(w, false, 0, 0, func() error { return s.eng.Add(add) }) {
		return
	}
	writeJSON(w, http.StatusOK, addSetsResponse{
		Added:      len(add),
		Total:      s.eng.Len(),
		Generation: atomic.LoadInt64(&s.gen),
	})
}

type snapshotResponse struct {
	// Snapshots counts durable snapshots written since startup (including
	// the one this request triggered); Generation is the mutation token the
	// snapshot captured the collection at.
	Snapshots  int64 `json:"snapshots"`
	Sets       int   `json:"sets"`
	Generation int64 `json:"generation"`
}

// handleSnapshot serves POST /v1/snapshot: it forces a durable snapshot of
// the engine's current state and rotates the write-ahead log. Requires the
// server's engine to have been built with a data directory; 409 otherwise.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if err := s.eng.Snapshot(); err != nil {
		if errors.Is(err, silkmoth.ErrNoDataDir) {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{
		Snapshots:  s.eng.Stats().Snapshots,
		Sets:       s.eng.Len(),
		Generation: atomic.LoadInt64(&s.gen),
	})
}

// bumpGeneration retires every cached result after a mutation: the bump
// invalidates the keys, the purge frees the memory. Callers hold mutMu.
func (s *Server) bumpGeneration() {
	atomic.AddInt64(&s.gen, 1)
	s.cache.Reset()
}

// pathID parses the {id} segment of a /v1/sets/{id} request. On failure it
// writes the 400 response and reports false.
func pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "set id must be an integer: %q", r.PathValue("id"))
		return 0, false
	}
	return id, true
}

// ifGeneration parses the optional if_generation query parameter — the
// optimistic-concurrency token for conditional mutations. The second
// result reports whether a condition is present, the third whether the
// request was well-formed (on false the response has been written).
func ifGeneration(w http.ResponseWriter, r *http.Request) (int64, bool, bool) {
	raw := r.URL.Query().Get("if_generation")
	if raw == "" {
		return 0, false, true
	}
	gen, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "if_generation must be an integer: %q", raw)
		return 0, false, false
	}
	return gen, true, true
}

// applyMutation runs one conditional set mutation under the mutation
// mutex: the if_generation token (when conditional) is compared against
// the current generation (mismatch → 409), apply is invoked, ErrNotFound
// maps to 404, and success bumps the generation and purges the cache. It
// reports whether the mutation applied; on false the response has been
// written. Every mutation route shares it so their concurrency semantics
// cannot drift apart (an add is never conditional and names no id).
func (s *Server) applyMutation(w http.ResponseWriter, conditional bool, ifGen int64, id int, apply func() error) bool {
	if conditional && ifGen != atomic.LoadInt64(&s.gen) {
		writeError(w, http.StatusConflict, "generation is %d, not %d: collection changed since it was read",
			atomic.LoadInt64(&s.gen), ifGen)
		return false
	}
	if err := apply(); err != nil {
		if errors.Is(err, silkmoth.ErrNotFound) {
			writeError(w, http.StatusNotFound, "no set with id %d", id)
			return false
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return false
	}
	s.bumpGeneration()
	return true
}

type deleteSetResponse struct {
	Deleted    int   `json:"deleted"`
	Live       int   `json:"live"`
	Generation int64 `json:"generation"`
}

// handleDeleteSet serves DELETE /v1/sets/{id}: the set is tombstoned out
// of every future query and the result cache is invalidated. With
// ?if_generation=G the delete only applies while the mutation generation
// is still G; a concurrent mutation in between yields 409 and no change.
func (s *Server) handleDeleteSet(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	ifGen, conditional, ok := ifGeneration(w, r)
	if !ok {
		return
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if !s.applyMutation(w, conditional, ifGen, id, func() error { return s.eng.Delete(id) }) {
		return
	}
	writeJSON(w, http.StatusOK, deleteSetResponse{
		Deleted:    id,
		Live:       s.eng.Len(),
		Generation: atomic.LoadInt64(&s.gen),
	})
}

type updateSetRequest struct {
	Set SetJSON `json:"set"`
	// IfGeneration, when present, makes the update conditional on the
	// mutation generation (same token /v1/stats reports); a mismatch
	// yields 409 and no change. The if_generation query parameter is an
	// equivalent alternative.
	IfGeneration *int64 `json:"if_generation,omitempty"`
}

type updateSetResponse struct {
	ID         int   `json:"id"`
	Replaced   int   `json:"replaced"`
	Live       int   `json:"live"`
	Generation int64 `json:"generation"`
}

// handleUpdateSet serves PUT /v1/sets/{id}: the set is atomically replaced
// by the request body's version, which gets a fresh id (returned); the old
// id is tombstoned and never reused.
func (s *Server) handleUpdateSet(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	qGen, qConditional, ok := ifGeneration(w, r)
	if !ok {
		return
	}
	var req updateSetRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.Set.Elements) == 0 {
		writeError(w, http.StatusBadRequest, "set.elements must be non-empty")
		return
	}
	ifGen, conditional := qGen, qConditional
	if req.IfGeneration != nil {
		ifGen, conditional = *req.IfGeneration, true
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	var newID int
	apply := func() (err error) {
		newID, err = s.eng.Update(id, req.Set.toSet())
		return err
	}
	if !s.applyMutation(w, conditional, ifGen, id, apply) {
		return
	}
	writeJSON(w, http.StatusOK, updateSetResponse{
		ID:         newID,
		Replaced:   id,
		Live:       s.eng.Len(),
		Generation: atomic.LoadInt64(&s.gen),
	})
}

type versionResponse struct {
	Version   string `json:"version"`
	GoVersion string `json:"go"`
	Revision  string `json:"revision,omitempty"`
}

// handleVersion serves GET /v1/version from the binary's embedded build
// metadata (module version, Go toolchain, VCS revision when stamped).
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	bi := obs.ReadBuildInfo()
	writeJSON(w, http.StatusOK, versionResponse{
		Version:   bi.Version,
		GoVersion: bi.GoVersion,
		Revision:  bi.Revision,
	})
}

type healthResponse struct {
	Status string `json:"status"`
	Sets   int    `json:"sets"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Sets: s.eng.Len()})
}
