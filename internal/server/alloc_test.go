package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"silkmoth/internal/raceflag"
)

// gateWriter is a ResponseWriter a gate reuses from run to run, so that an
// AllocsPerRun count is the handler's own.
type gateWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *gateWriter) Header() http.Header         { return w.h }
func (w *gateWriter) WriteHeader(code int)        { w.code = code }
func (w *gateWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// gateBody is a request body a gate rewinds from run to run.
type gateBody struct{ strings.Reader }

func (*gateBody) Close() error { return nil }

// TestSearchHandlerAllocGate pins the steady-state allocations of the
// search routes through ServeHTTP: a POST /v1/search cache hit, and misses
// on a server without a cache, which decode, run the engine and encode
// every time — a /v1/search, a two-item /v1/search/batch and a /v1/explain
// (whose answer bypasses the cache). Each budget is the count measured
// when the row was added, the larger of three runs, plus two of headroom
// (for hit and miss, when /v1/search still had a handler of its own,
// before every search route went through serveSearch); a rise past it is
// a per-request allocation the shared path added.
func TestSearchHandlerAllocGate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	const (
		query = `{"set": {"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}}`
		batch = `{"sets": [{"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}, {"elements": ["5th St Seattle WA"]}]}`
	)
	for _, tc := range []struct {
		name, route, body string
		cacheSize         int
		// cache is the X-Silkmoth-Cache header of a steady-state run.
		cache string
		// measured is the larger of three runs when the row was added
		// (a run then read 27 or 28 hitting, 42 or 43 missing, 65 or 66
		// for the batch and 54 or 55 for the explain).
		measured, budget float64
	}{
		{"hit", "/v1/search", query, 0, "hit", 28, 30},
		{"miss", "/v1/search", query, -1, "miss", 43, 45},
		{"batch miss", "/v1/search/batch", batch, -1, "miss", 65, 67},
		{"explain miss", "/v1/explain", query, -1, "", 55, 57},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t, Options{CacheSize: tc.cacheSize})
			body := &gateBody{}
			r := httptest.NewRequest(http.MethodPost, tc.route, body)
			w := &gateWriter{h: make(http.Header)}
			run := func() {
				body.Reset(tc.body)
				clear(w.h)
				w.body.Reset()
				s.ServeHTTP(w, r)
				if w.code != http.StatusOK {
					t.Fatalf("code %d: %s", w.code, w.body.String())
				}
			}
			run() // fills the cache, warms the pools
			run()
			if got := w.h.Get("X-Silkmoth-Cache"); got != tc.cache {
				t.Fatalf("cache %q, want %q", got, tc.cache)
			}
			got := testing.AllocsPerRun(200, run)
			t.Logf("%s: %.1f allocs (measured %.0f, budget %.0f)", tc.name, got, tc.measured, tc.budget)
			if got > tc.budget {
				t.Errorf("a %s %s allocates %.1f objects, budget %.0f", tc.route, tc.name, got, tc.budget)
			}
		})
	}
}
