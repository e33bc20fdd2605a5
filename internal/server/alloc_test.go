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

// TestSearchHandlerAllocGate pins the steady-state allocations of one POST
// /v1/search through ServeHTTP: a cache hit, and a miss on a server without a
// cache, which decodes, runs the engine and encodes every time. Each budget is
// the count measured when /v1/search still had a handler of its own, before
// every search route went through serveSearch, plus two of headroom; a rise
// past it is a per-request allocation the shared path added.
func TestSearchHandlerAllocGate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	const query = `{"set": {"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}}`
	for _, tc := range []struct {
		name      string
		cacheSize int
		// measured is the count before the routes shared one path (the
		// larger of three runs: a run reads 27 or 28 hitting, 42 or 43
		// missing).
		measured, budget float64
	}{
		{"hit", 0, 28, 30},
		{"miss", -1, 43, 45},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t, Options{CacheSize: tc.cacheSize})
			body := &gateBody{}
			r := httptest.NewRequest(http.MethodPost, "/v1/search", body)
			w := &gateWriter{h: make(http.Header)}
			run := func() {
				body.Reset(query)
				clear(w.h)
				w.body.Reset()
				s.ServeHTTP(w, r)
				if w.code != http.StatusOK {
					t.Fatalf("code %d: %s", w.code, w.body.String())
				}
			}
			run() // fills the cache, warms the pools
			run()
			if want := map[int]string{0: "hit", -1: "miss"}[tc.cacheSize]; w.h.Get("X-Silkmoth-Cache") != want {
				t.Fatalf("cache %q, want %q", w.h.Get("X-Silkmoth-Cache"), want)
			}
			got := testing.AllocsPerRun(200, run)
			t.Logf("%s: %.1f allocs (measured %.0f before, budget %.0f)", tc.name, got, tc.measured, tc.budget)
			if got > tc.budget {
				t.Errorf("a /v1/search %s allocates %.1f objects, budget %.0f", tc.name, got, tc.budget)
			}
		})
	}
}
