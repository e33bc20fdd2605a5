package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"silkmoth"
	"silkmoth/internal/core"
	"silkmoth/internal/obs"
)

// scrape fetches /metrics and parses it with the in-repo exposition
// parser, failing the test on any conformance violation.
func scrape(t *testing.T, s *Server) []*obs.MetricFamily {
	t.Helper()
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics code = %d", w.Code)
	}
	fams, err := obs.ParseText(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("parsing /metrics: %v\n%s", err, w.Body.String())
	}
	if err := obs.Validate(fams); err != nil {
		t.Fatalf("validating /metrics: %v\n%s", err, w.Body.String())
	}
	return fams
}

func familyNames(fams []*obs.MetricFamily) map[string]bool {
	names := make(map[string]bool, len(fams))
	for _, f := range fams {
		names[f.Name] = true
	}
	return names
}

// TestMetricsConformance drives mixed traffic through the server — search,
// batch, explain, a cache hit, a 404 — then checks the whole /metrics
// payload survives the exposition parser and carries every advertised
// family: route histograms, stage histograms, rejection and queue
// counters, runtime gauges, build info.
func TestMetricsConformance(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	postJSON(t, s, "/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`)
	postJSON(t, s, "/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`) // cache hit
	postJSON(t, s, "/v1/search/batch", `{"sets": [{"elements": ["5th St Seattle WA"]}]}`)
	postJSON(t, s, "/v1/explain", `{"set": {"elements": ["State St Chicago IL"]}}`)
	get(t, s, "/nosuch")

	names := familyNames(scrape(t, s))
	for _, want := range []string{
		"silkmothd_uptime_seconds",
		"silkmothd_inflight_requests",
		"silkmothd_queue_depth",
		"silkmothd_queue_depth_high_water",
		"silkmothd_rejections_total",
		"silkmothd_cache_hits_total",
		"silkmothd_cache_misses_total",
		"silkmothd_requests_total",
		"silkmothd_request_seconds",
		"silkmothd_collection_sets",
		"silkmothd_engine_search_passes_total",
		"silkmothd_result_cache_entries",
		"silkmothd_result_cache_evictions_total",
		"silkmothd_stage_seconds",
		"silkmothd_search_split_passes_total",
		"silkmothd_search_helper_chunks_total",
		"silkmothd_goroutines",
		"silkmothd_heap_alloc_bytes",
		"silkmothd_gc_pause_seconds_total",
		"silkmothd_build_info",
	} {
		if !names[want] {
			t.Errorf("metrics missing family %q", want)
		}
	}
}

// TestMetricsRouteHistograms checks every known route label renders a
// latency histogram (even before traffic), and that observed traffic lands
// in the right series.
func TestMetricsRouteHistograms(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	postJSON(t, s, "/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`)
	fams := scrape(t, s)
	var hist *obs.MetricFamily
	for _, f := range fams {
		if f.Name == "silkmothd_request_seconds" {
			hist = f
		}
	}
	if hist == nil {
		t.Fatal("no silkmothd_request_seconds family")
	}
	counts := make(map[string]float64)
	for _, sm := range hist.Samples {
		if strings.HasSuffix(sm.Name, "_count") {
			counts[sm.Labels["path"]] = sm.Value
		}
	}
	for path := range knownPaths {
		if _, ok := counts[path]; !ok {
			t.Errorf("route %q has no latency histogram", path)
		}
	}
	if _, ok := counts[otherRoute]; !ok {
		t.Error("aggregate other route has no latency histogram")
	}
	if counts["/v1/search"] != 1 {
		t.Errorf("search histogram count = %g, want 1", counts["/v1/search"])
	}
}

// TestMetricsSplitCounters checks that a search whose pass split shows in
// the split-pass counter, beside the count of chunks its helpers ran.
func TestMetricsSplitCounters(t *testing.T) {
	defer core.ForceSplitForTest()()
	cfg := testConfig()
	cfg.Shards = 2
	eng, err := silkmoth.NewEngine(testSets(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, cfg, Options{})
	postJSON(t, s, "/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`)
	values := make(map[string]float64)
	for _, f := range scrape(t, s) {
		for _, sm := range f.Samples {
			values[sm.Name] = sm.Value
		}
	}
	if got := values["silkmothd_search_split_passes_total"]; got != 1 {
		t.Errorf("split passes = %g, want 1", got)
	}
	if got, ok := values["silkmothd_search_helper_chunks_total"]; !ok || got < 0 {
		t.Errorf("helper chunks = %g, %v", got, ok)
	}
}

// TestRequestIDEcho checks the X-Request-Id contract: a well-formed caller
// id is echoed back, a malformed one is replaced, and absent ids are
// generated fresh per request.
func TestRequestIDEcho(t *testing.T) {
	s, _ := newTestServer(t, Options{})

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-id-42")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-Id"); got != "caller-id-42" {
		t.Errorf("valid caller id not echoed: got %q", got)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-Id", "has space\"quote")
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-Id"); got == "" || strings.Contains(got, " ") {
		t.Errorf("malformed caller id not replaced: got %q", got)
	}

	a := get(t, s, "/healthz").Header().Get("X-Request-Id")
	b := get(t, s, "/healthz").Header().Get("X-Request-Id")
	if a == "" || b == "" || a == b {
		t.Errorf("generated ids must be unique and non-empty: %q, %q", a, b)
	}
}

// slowLine is the decoded slow-query log schema.
type slowLine struct {
	TS         string           `json:"ts"`
	Event      string           `json:"event"`
	RequestID  string           `json:"request_id"`
	Route      string           `json:"route"`
	Reason     string           `json:"reason"`
	ElapsedUS  int64            `json:"elapsed_us"`
	Scheme     string           `json:"scheme"`
	Passes     int64            `json:"passes"`
	FullScans  int64            `json:"full_scans"`
	SigTokens  int64            `json:"sig_tokens"`
	Candidates int64            `json:"candidates"`
	AfterCheck int64            `json:"after_check"`
	CheckPrune int64            `json:"check_pruned"`
	AfterNN    int64            `json:"after_nn"`
	NNPruned   int64            `json:"nn_pruned"`
	Verified   int64            `json:"verified"`
	StageNS    map[string]int64 `json:"stage_ns"`
	Shards     int              `json:"shards"`
	BatchIndex *int             `json:"batch_index"`
}

func decodeSlowLines(t *testing.T, buf *bytes.Buffer) []slowLine {
	t.Helper()
	var lines []slowLine
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if raw == "" {
			continue
		}
		var ln slowLine
		if err := json.Unmarshal([]byte(raw), &ln); err != nil {
			t.Fatalf("slow log line is not valid JSON: %v\n%s", err, raw)
		}
		lines = append(lines, ln)
	}
	return lines
}

// TestSlowQueryLog checks a query past the threshold emits exactly one
// JSON line carrying the request id and an arithmetically consistent
// funnel with per-stage times.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	s, _ := newTestServer(t, Options{
		SlowQueryThreshold: time.Nanosecond, // every query is slow
		LogWriter:          &buf,
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/search",
		strings.NewReader(`{"set": {"elements": ["77 Mass Ave Boston MA"]}}`))
	req.Header.Set("X-Request-Id", "slow-test-7")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("search code = %d: %s", w.Code, w.Body.String())
	}
	var resp BatchItemJSON
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Explain != nil {
		t.Error("server-side capture leaked an explain into the response")
	}

	lines := decodeSlowLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("got %d slow-query lines, want exactly 1:\n%s", len(lines), buf.String())
	}
	ln := lines[0]
	if ln.Event != "slow_query" || ln.Reason != "threshold" {
		t.Errorf("event/reason = %q/%q", ln.Event, ln.Reason)
	}
	if ln.RequestID != "slow-test-7" {
		t.Errorf("request id = %q, want slow-test-7", ln.RequestID)
	}
	if ln.Route != "/v1/search" {
		t.Errorf("route = %q", ln.Route)
	}
	if ln.TS == "" || ln.Scheme == "" || ln.Passes < 1 || ln.Shards < 1 {
		t.Errorf("incomplete line: ts=%q scheme=%q passes=%d shards=%d", ln.TS, ln.Scheme, ln.Passes, ln.Shards)
	}
	if ln.Candidates != ln.AfterCheck+ln.CheckPrune {
		t.Errorf("funnel broken: candidates %d != after_check %d + check_pruned %d",
			ln.Candidates, ln.AfterCheck, ln.CheckPrune)
	}
	if ln.AfterCheck != ln.AfterNN+ln.NNPruned {
		t.Errorf("funnel broken: after_check %d != after_nn %d + nn_pruned %d",
			ln.AfterCheck, ln.AfterNN, ln.NNPruned)
	}
	for _, stage := range []string{"signature", "collect", "refine", "verify"} {
		if _, ok := ln.StageNS[stage]; !ok {
			t.Errorf("stage_ns missing %q: %v", stage, ln.StageNS)
		}
	}
}

// TestSlowQuerySampleBatch checks 1-in-N sampling and batch fan-out: every
// item of a sampled batch logs its own funnel line under the batch
// request's id, positionally indexed.
func TestSlowQuerySampleBatch(t *testing.T) {
	var buf bytes.Buffer
	s, _ := newTestServer(t, Options{
		SlowQuerySample: 1, // every query drawn
		LogWriter:       &buf,
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/search/batch",
		strings.NewReader(`{"sets": [{"elements": ["77 Mass Ave Boston MA"]}, {"elements": ["red bicycle"]}]}`))
	req.Header.Set("X-Request-Id", "batch-rid-1")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch code = %d: %s", w.Code, w.Body.String())
	}
	var resp batchSearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Results {
		if item.Scheme != "" || item.Explain != nil {
			t.Errorf("item %d: capture leaked into response: %+v", i, item)
		}
	}

	lines := decodeSlowLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (one per batch item):\n%s", len(lines), buf.String())
	}
	seen := make(map[int]bool)
	for _, ln := range lines {
		if ln.RequestID != "batch-rid-1" {
			t.Errorf("batch item line lost the request id: %q", ln.RequestID)
		}
		if ln.Reason != "sampled" {
			t.Errorf("reason = %q, want sampled", ln.Reason)
		}
		if ln.BatchIndex == nil {
			t.Error("batch item line missing batch_index")
			continue
		}
		seen[*ln.BatchIndex] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("batch indexes not covered: %v", seen)
	}
}

// TestSlowQueryBatchFirstOccurrence checks the funnel lines of a batch whose
// items repeat or hit the cache: one line per engine query, indexed by the
// request position of its first item, and none for an item the cache
// answered.
func TestSlowQueryBatchFirstOccurrence(t *testing.T) {
	var buf bytes.Buffer
	s, _ := newTestServer(t, Options{SlowQuerySample: 1, LogWriter: &buf})
	a := `{"elements": ["77 Mass Ave Boston MA"]}`
	b := `{"elements": ["red bicycle"]}`
	c := `{"elements": ["5th St Seattle WA"]}`
	indexes := func(body string) []int {
		t.Helper()
		buf.Reset()
		if w := postJSON(t, s, "/v1/search/batch", body); w.Code != http.StatusOK {
			t.Fatalf("batch code = %d: %s", w.Code, w.Body.String())
		}
		var out []int
		for _, ln := range decodeSlowLines(t, &buf) {
			if ln.BatchIndex == nil {
				t.Fatalf("batch item line missing batch_index:\n%s", buf.String())
			}
			out = append(out, *ln.BatchIndex)
		}
		return out
	}
	if got := indexes(`{"sets": [` + b + `,` + a + `,` + b + `]}`); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("[b, a, b] logged batch indexes %v, want [0 1]", got)
	}
	if got := indexes(`{"sets": [` + a + `,` + c + `,` + b + `,` + c + `]}`); len(got) != 1 || got[0] != 1 {
		t.Fatalf("[a, c, b, c] with a and b cached logged batch indexes %v, want [1]", got)
	}
}

// TestAccessLog checks the per-request access line schema.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s, _ := newTestServer(t, Options{AccessLog: true, LogWriter: &buf})
	get(t, s, "/healthz")
	var line struct {
		Event     string `json:"event"`
		RequestID string `json:"request_id"`
		Method    string `json:"method"`
		Path      string `json:"path"`
		Route     string `json:"route"`
		Code      int    `json:"code"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &line); err != nil {
		t.Fatalf("access line not valid JSON: %v\n%s", err, buf.String())
	}
	if line.Event != "access" || line.Method != "GET" || line.Path != "/healthz" ||
		line.Route != "/healthz" || line.Code != 200 || line.RequestID == "" {
		t.Errorf("bad access line: %+v", line)
	}
}

// TestVersionEndpoint checks /v1/version reports embedded build metadata.
func TestVersionEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	w := get(t, s, "/v1/version")
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d", w.Code)
	}
	v := decode[versionResponse](t, w)
	if v.GoVersion == "" || v.Version == "" {
		t.Errorf("incomplete version: %+v", v)
	}
}

// TestCacheEvictionMetric checks capacity-pressure evictions are counted
// and exposed.
func TestCacheEvictionMetric(t *testing.T) {
	s, _ := newTestServer(t, Options{CacheSize: 1})
	postJSON(t, s, "/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`)
	postJSON(t, s, "/v1/search", `{"set": {"elements": ["red bicycle"]}}`) // evicts the first
	if got := s.cache.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	w := get(t, s, "/metrics")
	if !strings.Contains(w.Body.String(), "silkmothd_result_cache_evictions_total 1") {
		t.Error("metrics missing eviction count")
	}
}

// TestPoolFullRejection occupies the whole worker pool and checks a
// request that never gets a slot is rejected and charged to pool_full, on
// a search route and on both one-call routes.
func TestPoolFullRejection(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`},
		{"/v1/discover-against", `{"sets": [{"elements": ["77 Mass Ave Boston MA"]}]}`},
		{"/v1/compare", `{"r": {"elements": ["77 Mass Ave Boston MA"]}, "s": {"elements": ["5th St Seattle WA"]}}`},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			s, _ := newTestServer(t, Options{MaxInFlight: 1, RequestTimeout: 20 * time.Millisecond})
			s.sem <- struct{}{} // occupy the only slot
			defer func() { <-s.sem }()
			w := postJSON(t, s, tc.path, tc.body)
			if w.Code != http.StatusGatewayTimeout {
				t.Fatalf("code = %d, want 504", w.Code)
			}
			mw := get(t, s, "/metrics")
			if !strings.Contains(mw.Body.String(), `silkmothd_rejections_total{cause="pool_full"} 1`) {
				t.Errorf("pool_full rejection not counted:\n%s", mw.Body.String())
			}
		})
	}
}

// TestRejectionCauses checks the engine-abort paths split timeout from
// client cancellation.
func TestRejectionCauses(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	s.writeQueryErr(httptest.NewRecorder(), context.DeadlineExceeded)
	s.writeQueryErr(httptest.NewRecorder(), context.Canceled)
	w := get(t, s, "/metrics")
	for _, want := range []string{
		`silkmothd_rejections_total{cause="timeout"} 1`,
		`silkmothd_rejections_total{cause="cancelled"} 1`,
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPprofOptIn checks pprof handlers are mounted only when enabled.
func TestPprofOptIn(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	if w := get(t, s, "/debug/pprof/"); w.Code != http.StatusNotFound {
		t.Errorf("pprof mounted without opt-in: code %d", w.Code)
	}
	s, _ = newTestServer(t, Options{EnablePprof: true})
	if w := get(t, s, "/debug/pprof/"); w.Code != http.StatusOK {
		t.Errorf("pprof index code = %d, want 200", w.Code)
	}
}
