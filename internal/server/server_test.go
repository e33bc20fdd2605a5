package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"silkmoth"
)

// testSets is a small corpus with known relatedness structure: addresses
// and locations overlap heavily, products is unrelated.
func testSets() []silkmoth.Set {
	return []silkmoth.Set{
		{Name: "addresses", Elements: []string{
			"77 Mass Ave Boston MA", "5th St Seattle WA", "Michigan Ave Chicago IL",
		}},
		{Name: "locations", Elements: []string{
			"77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL",
		}},
		{Name: "products", Elements: []string{
			"red bicycle", "blue kettle", "green lamp",
		}},
	}
}

func testConfig() silkmoth.Config {
	return silkmoth.Config{
		Metric:      silkmoth.SetSimilarity,
		Similarity:  silkmoth.Jaccard,
		Delta:       0.5,
		Concurrency: 2,
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *silkmoth.Engine) {
	t.Helper()
	cfg := testConfig()
	eng, err := silkmoth.NewEngine(testSets(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(eng, cfg, opts), eng
}

func postJSON(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	w := get(t, s, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, want 200", w.Code)
	}
	resp := decode[healthResponse](t, w)
	if resp.Status != "ok" || resp.Sets != 3 {
		t.Fatalf("health = %+v", resp)
	}
}

func TestSearch(t *testing.T) {
	s, eng := newTestServer(t, Options{})
	body := `{"set": {"name": "q", "elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}}`
	w := postJSON(t, s, "/v1/search", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	resp := decode[BatchItemJSON](t, w)

	want, err := eng.SearchContext(context.Background(), silkmoth.Set{Elements: []string{
		"77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != len(want) {
		t.Fatalf("got %d matches, engine says %d", len(resp.Matches), len(want))
	}
	for i := range want {
		if resp.Matches[i].Index != want[i].Index || resp.Matches[i].Name != want[i].Name {
			t.Errorf("match %d: got %+v want %+v", i, resp.Matches[i], want[i])
		}
	}
	if len(resp.Matches) == 0 || resp.Matches[0].Name != "locations" {
		t.Fatalf("expected locations as best match, got %+v", resp.Matches)
	}
}

func TestSearchMalformed(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	cases := []struct {
		name, path, body string
	}{
		{"bad json", "/v1/search", `{"set": {`},
		{"empty body", "/v1/search", ``},
		{"no elements", "/v1/search", `{"set": {"name": "q", "elements": []}}`},
		{"topk bad json", "/v1/topk", `not json`},
		{"topk zero k", "/v1/topk", `{"set": {"elements": ["x"]}, "k": 0}`},
		{"discover no sets", "/v1/discover-against", `{"sets": []}`},
		{"discover bad json", "/v1/discover-against", `[`},
		{"compare missing s", "/v1/compare", `{"r": {"elements": ["x"]}}`},
		{"compare bad json", "/v1/compare", `{{`},
		{"add no sets", "/v1/sets", `{"sets": []}`},
		{"add empty set", "/v1/sets", `{"sets": [{"name": "e", "elements": []}]}`},
		{"add bad json", "/v1/sets", `"nope`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, s, tc.path, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("code = %d, want 400 (body %s)", w.Code, w.Body)
			}
			if resp := decode[errorResponse](t, w); resp.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	w := get(t, s, "/v1/search")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search = %d, want 405", w.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", rec.Code)
	}
}

func TestTopK(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"set": {"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}, "k": 1}`
	w := postJSON(t, s, "/v1/topk", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	resp := decode[BatchItemJSON](t, w)
	if len(resp.Matches) != 1 {
		t.Fatalf("got %d matches, want 1", len(resp.Matches))
	}
	if resp.Matches[0].Name != "locations" {
		t.Fatalf("top-1 = %q, want locations", resp.Matches[0].Name)
	}
}

// TestKOnEverySearchRoute pins k on every search route: a k of 1 gets the
// full answer's first match from /v1/search, /v1/topk, /v1/explain and a
// batch item alike, the first two sharing one cache entry, and a negative k
// is a 400 wherever k is optional.
func TestKOnEverySearchRoute(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	set := `{"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}`
	full := decode[BatchItemJSON](t, postJSON(t, s, "/v1/search", `{"set": `+set+`}`))
	if len(full.Matches) < 2 {
		t.Fatalf("the fixture query matches %d sets, want at least 2", len(full.Matches))
	}
	top1 := full.Matches[:1]
	same := func(route string, got []MatchJSON) {
		t.Helper()
		if len(got) != 1 || got[0] != top1[0] {
			t.Fatalf("%s with k=1 answered %+v, want %+v", route, got, top1)
		}
	}
	w := postJSON(t, s, "/v1/search", `{"set": `+set+`, "k": 1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/search k=1: code %d: %s", w.Code, w.Body)
	}
	same("/v1/search", decode[BatchItemJSON](t, w).Matches)
	topk := postJSON(t, s, "/v1/topk", `{"set": `+set+`, "k": 1}`)
	if got := topk.Header().Get("X-Silkmoth-Cache"); got != "hit" || !bytes.Equal(topk.Body.Bytes(), w.Body.Bytes()) {
		t.Fatalf("/v1/topk after /v1/search at k=1: cache %q, body %s, want a hit on %s", got, topk.Body, w.Body)
	}
	same("/v1/explain", decode[BatchItemJSON](t, postJSON(t, s, "/v1/explain", `{"set": `+set+`, "k": 1}`)).Matches)
	batch := decode[batchSearchResponse](t, postJSON(t, s, "/v1/search/batch", `{"sets": [`+set+`], "k": 1}`))
	same("/v1/search/batch", batch.Results[0].Matches)

	for path, body := range map[string]string{
		"/v1/search":       `{"set": ` + set + `, "k": -1}`,
		"/v1/explain":      `{"set": ` + set + `, "k": -1}`,
		"/v1/search/batch": `{"sets": [` + set + `], "k": -1}`,
	} {
		if w := postJSON(t, s, path, body); w.Code != http.StatusBadRequest {
			t.Errorf("%s with k=-1: code %d, want 400", path, w.Code)
		}
	}
}

func TestDiscoverAgainst(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"sets": [
		{"name": "q1", "elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]},
		{"name": "q2", "elements": ["purple submarine", "orange cat"]}
	]}`
	w := postJSON(t, s, "/v1/discover-against", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	resp := decode[discoverResponse](t, w)
	if len(resp.Pairs) == 0 {
		t.Fatal("expected pairs for q1")
	}
	for _, p := range resp.Pairs {
		if p.RName == "q2" {
			t.Errorf("q2 should relate to nothing, got pair %+v", p)
		}
		if p.RName == "q1" && p.SName == "products" {
			t.Errorf("q1 should not relate to products")
		}
	}
}

// TestDiscoverAgainstCacheKeysNames: each pair names its reference
// (r_name), so two requests with the same elements under different
// reference names must not share a cache entry, while a repeat of either
// still hits.
func TestDiscoverAgainstCacheKeysNames(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := func(name string) string {
		return `{"sets": [{"name": "` + name + `", "elements": ["77 Mass Ave Boston MA", "5th St Seattle WA"]}]}`
	}
	for _, step := range []struct{ name, cache string }{
		{"alpha", "miss"}, {"beta", "miss"}, {"alpha", "hit"}, {"beta", "hit"},
	} {
		w := postJSON(t, s, "/v1/discover-against", body(step.name))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: code = %d, body %s", step.name, w.Code, w.Body)
		}
		if got := w.Header().Get("X-Silkmoth-Cache"); got != step.cache {
			t.Errorf("%s: X-Silkmoth-Cache = %q, want %q", step.name, got, step.cache)
		}
		resp := decode[discoverResponse](t, w)
		if len(resp.Pairs) == 0 {
			t.Fatalf("%s: no pairs", step.name)
		}
		for _, p := range resp.Pairs {
			if p.RName != step.name {
				t.Errorf("%s (cache %s): pair %+v names reference %q", step.name, step.cache, p, p.RName)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"r": {"elements": ["77 Mass Ave Boston MA"]}, "s": {"elements": ["77 Mass Ave Boston MA"]}}`
	w := postJSON(t, s, "/v1/compare", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	resp := decode[compareResponse](t, w)
	if resp.Relatedness != 1 {
		t.Fatalf("identical sets relatedness = %g, want 1", resp.Relatedness)
	}
}

// TestCompareErrorIs400: an error Compare returns is the request's, not
// its context's, so it answers 400 and charges no rejection.
func TestCompareErrorIs400(t *testing.T) {
	cfg := testConfig()
	eng, err := silkmoth.NewEngine(testSets(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Delta = 2 // Compare validates the configuration it is handed
	s := New(eng, cfg, Options{})
	w := postJSON(t, s, "/v1/compare", `{"r": {"elements": ["a"]}, "s": {"elements": ["a"]}}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(decode[errorResponse](t, w).Error, "Delta") {
		t.Fatalf("code = %d (body %s), want 400 naming Delta", w.Code, w.Body)
	}
	if m := get(t, s, "/metrics").Body.String(); strings.Contains(m, `silkmothd_rejections_total{cause="cancelled"} 1`) {
		t.Errorf("a compare error was charged as a cancellation:\n%s", m)
	}
}

// setOfN is the JSON of a set of n distinct one-word elements.
func setOfN(n int) string {
	els := make([]string, n)
	for i := range els {
		els[i] = fmt.Sprintf(`"e%d"`, i)
	}
	return `{"elements": [` + strings.Join(els, ", ") + `]}`
}

func TestCompareSizeBound(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for _, body := range []string{
		`{"r": ` + setOfN(513) + `, "s": {"elements": ["a"]}}`,
		`{"r": {"elements": ["a"]}, "s": ` + setOfN(513) + `}`,
	} {
		w := postJSON(t, s, "/v1/compare", body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("oversized compare code = %d, want 400 (body %s)", w.Code, w.Body)
		}
		if !strings.Contains(decode[errorResponse](t, w).Error, "limited to 512") {
			t.Fatalf("error should name the bound: %s", w.Body)
		}
	}
}

func TestMetricsPathCardinality(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for i := 0; i < 5; i++ {
		get(t, s, fmt.Sprintf("/scanner/probe%d", i))
	}
	w := get(t, s, "/metrics")
	text := w.Body.String()
	if strings.Contains(text, "scanner") {
		t.Fatalf("unmatched paths must not become metric labels:\n%s", text)
	}
	if !strings.Contains(text, `silkmothd_requests_total{path="other",code="404"} 5`) {
		t.Fatalf("unmatched paths should aggregate under \"other\":\n%s", text)
	}
}

func TestAddSetsAndCacheInvalidation(t *testing.T) {
	s, eng := newTestServer(t, Options{})
	query := `{"set": {"elements": ["Pine St Portland OR", "Oak St Denver CO"]}}`

	// Initially nothing matches the query.
	w := postJSON(t, s, "/v1/search", query)
	if resp := decode[BatchItemJSON](t, w); len(resp.Matches) != 0 {
		t.Fatalf("unexpected matches before add: %+v", resp.Matches)
	}

	// Add a set that matches exactly; the cached empty result must not
	// be served afterwards.
	add := `{"sets": [{"name": "streets", "elements": ["Pine St Portland OR", "Oak St Denver CO"]}]}`
	w = postJSON(t, s, "/v1/sets", add)
	if w.Code != http.StatusOK {
		t.Fatalf("add code = %d, body %s", w.Code, w.Body)
	}
	addResp := decode[addSetsResponse](t, w)
	if addResp.Added != 1 || addResp.Total != 4 {
		t.Fatalf("add = %+v, want added 1 total 4", addResp)
	}
	if eng.Len() != 4 {
		t.Fatalf("engine len = %d, want 4", eng.Len())
	}

	w = postJSON(t, s, "/v1/search", query)
	resp := decode[BatchItemJSON](t, w)
	if len(resp.Matches) != 1 || resp.Matches[0].Name != "streets" {
		t.Fatalf("after add: matches = %+v, want [streets]", resp.Matches)
	}
}

func TestResultCache(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"set": {"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}}`

	w1 := postJSON(t, s, "/v1/search", body)
	if got := w1.Header().Get("X-Silkmoth-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	w2 := postJSON(t, s, "/v1/search", body)
	if got := w2.Header().Get("X-Silkmoth-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cached body differs from computed body")
	}

	// The funnel must not grow on a cache hit.
	st := get(t, s, "/v1/stats")
	stats := decode[statsResponse](t, st)
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit 1 miss", stats.Cache)
	}
	if stats.Engine.SearchPasses != 1 {
		t.Fatalf("search passes = %d, want 1 (hit must not re-run)", stats.Engine.SearchPasses)
	}
}

func TestCacheDisabled(t *testing.T) {
	s, _ := newTestServer(t, Options{CacheSize: -1})
	body := `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`
	postJSON(t, s, "/v1/search", body)
	w := postJSON(t, s, "/v1/search", body)
	if got := w.Header().Get("X-Silkmoth-Cache"); got != "miss" {
		t.Fatalf("cache disabled but header = %q", got)
	}
}

func TestStats(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	w := get(t, s, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d", w.Code)
	}
	resp := decode[statsResponse](t, w)
	if resp.Sets != 3 || resp.Metric != "set-similarity" || resp.Similarity != "jaccard" {
		t.Fatalf("stats = %+v", resp)
	}
	if resp.Delta != 0.5 {
		t.Fatalf("delta = %g, want 0.5", resp.Delta)
	}
	// One shard, built in one piece: 8 bytes for each of the 9 elements and
	// 4 for each of the 3 sets and the table's end.
	if resp.Storage.PostingDirectoryBytes != 9*8+4*4 {
		t.Fatalf("storage.directory_bytes = %d, want %d", resp.Storage.PostingDirectoryBytes, 9*8+4*4)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	postJSON(t, s, "/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`)
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d", w.Code)
	}
	text := w.Body.String()
	for _, want := range []string{
		"silkmothd_requests_total{path=\"/v1/search\",code=\"200\"} 1",
		"silkmothd_cache_misses_total 1",
		"silkmothd_collection_sets 3",
		"silkmothd_posting_storage_bytes{form=\"directory\"} 88",
		"silkmothd_engine_search_passes_total",
		"silkmothd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
}

func TestRequestTimeout(t *testing.T) {
	s, _ := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	w := postJSON(t, s, "/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d, want 504 (body %s)", w.Code, w.Body)
	}
}

// TestConcurrentQueries exercises the acceptance criterion: concurrent
// /v1/search and /v1/discover-against traffic (with an Add thrown in) must
// be served correctly under -race.
func TestConcurrentQueries(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxInFlight: 4})
	searchBody := `{"set": {"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}}`
	discoverBody := `{"sets": [{"name": "q", "elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}]}`

	const goroutines = 12
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch {
				case g%3 == 0:
					req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(searchBody))
					w := httptest.NewRecorder()
					s.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						errs <- fmt.Sprintf("search: code %d body %s", w.Code, w.Body)
						return
					}
					var resp BatchItemJSON
					if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
						errs <- fmt.Sprintf("search: %v", err)
						return
					}
					if len(resp.Matches) == 0 {
						errs <- "search: no matches"
						return
					}
				case g%3 == 1:
					req := httptest.NewRequest(http.MethodPost, "/v1/discover-against", strings.NewReader(discoverBody))
					w := httptest.NewRecorder()
					s.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						errs <- fmt.Sprintf("discover: code %d body %s", w.Code, w.Body)
						return
					}
					var resp discoverResponse
					if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
						errs <- fmt.Sprintf("discover: %v", err)
						return
					}
					if len(resp.Pairs) == 0 {
						errs <- "discover: no pairs"
						return
					}
				default:
					// Grow the collection mid-traffic with sets that
					// never match the queries above.
					add := fmt.Sprintf(`{"sets": [{"name": "extra%d-%d", "elements": ["zz%dqq%d ww%d"]}]}`, g, r, g, r, r)
					req := httptest.NewRequest(http.MethodPost, "/v1/sets", strings.NewReader(add))
					w := httptest.NewRecorder()
					s.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						errs <- fmt.Sprintf("add: code %d body %s", w.Code, w.Body)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// newShardedTestServer builds a server over a sharded engine.
func newShardedTestServer(t *testing.T, shards int, opts Options) (*Server, *silkmoth.Engine) {
	t.Helper()
	cfg := testConfig()
	cfg.Shards = shards
	eng, err := silkmoth.NewEngine(testSets(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(eng, cfg, opts), eng
}

func TestSearchBatch(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, eng := newShardedTestServer(t, shards, Options{})
			body := `{"sets": [
				{"name": "q1", "elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]},
				{"name": "q2", "elements": ["purple submarine", "orange cat"]}
			]}`
			w := postJSON(t, s, "/v1/search/batch", body)
			if w.Code != http.StatusOK {
				t.Fatalf("code = %d, body %s", w.Code, w.Body)
			}
			resp := decode[batchSearchResponse](t, w)
			if len(resp.Results) != 2 {
				t.Fatalf("got %d results, want 2", len(resp.Results))
			}
			// Each item must equal the single-query endpoint's answer.
			want1, err := eng.SearchContext(context.Background(), silkmoth.Set{Elements: []string{
				"77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL",
			}})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results[0].Matches) != len(want1) {
				t.Fatalf("item 0: %d matches, engine says %d", len(resp.Results[0].Matches), len(want1))
			}
			for i, m := range resp.Results[0].Matches {
				if m.Index != want1[i].Index || m.Relatedness != want1[i].Relatedness {
					t.Fatalf("item 0 match %d: got %+v want %+v", i, m, want1[i])
				}
			}
			if len(resp.Results[0].Matches) == 0 || resp.Results[0].Matches[0].Name != "locations" {
				t.Fatalf("q1 best match should be locations, got %+v", resp.Results[0].Matches)
			}
			if len(resp.Results[1].Matches) != 0 || resp.Results[1].Error != "" {
				t.Fatalf("q2 should match nothing without error, got %+v", resp.Results[1])
			}
		})
	}
}

func TestSearchBatchTopK(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"sets": [{"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}], "k": 1}`
	w := postJSON(t, s, "/v1/search/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	resp := decode[batchSearchResponse](t, w)
	if len(resp.Results) != 1 || len(resp.Results[0].Matches) != 1 {
		t.Fatalf("k=1 should truncate to one match per item, got %+v", resp.Results)
	}
	if resp.Results[0].Matches[0].Name != "locations" {
		t.Fatalf("top-1 = %q, want locations", resp.Results[0].Matches[0].Name)
	}
}

func TestSearchBatchPerItemErrors(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"sets": [
		{"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]},
		{"name": "empty", "elements": []},
		{"elements": ["purple submarine"]}
	]}`
	w := postJSON(t, s, "/v1/search/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("an invalid item must not fail the batch: code = %d, body %s", w.Code, w.Body)
	}
	resp := decode[batchSearchResponse](t, w)
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if len(resp.Results[0].Matches) == 0 || resp.Results[0].Error != "" {
		t.Fatalf("item 0 should succeed, got %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" || len(resp.Results[1].Matches) != 0 {
		t.Fatalf("item 1 should carry a per-item error, got %+v", resp.Results[1])
	}
	if resp.Results[2].Error != "" {
		t.Fatalf("item 2 should succeed, got %+v", resp.Results[2])
	}
}

func TestSearchBatchRejects(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	oversized := make([]string, 257)
	for i := range oversized {
		oversized[i] = setOfN(1)
	}
	cases := []struct {
		name, body string
		code       int
	}{
		{"empty batch", `{"sets": []}`, http.StatusBadRequest},
		{"bad json", `{"sets": [`, http.StatusBadRequest},
		{"negative k", `{"sets": [{"elements": ["x"]}], "k": -1}`, http.StatusBadRequest},
		{"oversized", `{"sets": [` + strings.Join(oversized, ", ") + `]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, s, "/v1/search/batch", tc.body)
			if w.Code != tc.code {
				t.Fatalf("code = %d, want %d (body %s)", w.Code, tc.code, w.Body)
			}
			if resp := decode[errorResponse](t, w); resp.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxBodyBytes: 64})
	body := `{"set": {"elements": ["` + strings.Repeat("x", 200) + `"]}}`
	w := postJSON(t, s, "/v1/search", body)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("code = %d, want 413 (body %s)", w.Code, w.Body)
	}
	if resp := decode[errorResponse](t, w); resp.Error == "" {
		t.Fatal("error body missing")
	}
}

func TestSearchBatchCached(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"sets": [{"elements": ["77 Mass Ave Boston MA"]}]}`
	w := postJSON(t, s, "/v1/search/batch", body)
	if w.Code != http.StatusOK || w.Header().Get("X-Silkmoth-Cache") != "miss" {
		t.Fatalf("first call: code %d cache %q", w.Code, w.Header().Get("X-Silkmoth-Cache"))
	}
	w = postJSON(t, s, "/v1/search/batch", body)
	if w.Code != http.StatusOK || w.Header().Get("X-Silkmoth-Cache") != "hit" {
		t.Fatalf("second call: code %d cache %q", w.Code, w.Header().Get("X-Silkmoth-Cache"))
	}
}

func TestStatsAndMetricsShards(t *testing.T) {
	s, _ := newShardedTestServer(t, 2, Options{})
	w := get(t, s, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats code = %d", w.Code)
	}
	st := decode[statsResponse](t, w)
	if st.Shards != 2 || st.Sets != 3 {
		t.Fatalf("stats shards=%d sets=%d, want 2 and 3", st.Shards, st.Sets)
	}
	w = get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics code = %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "silkmothd_engine_shards 2") {
		t.Fatalf("metrics missing shard gauge:\n%s", w.Body.String())
	}
}
