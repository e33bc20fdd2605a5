package server

import (
	"fmt"
	"net/http"
	"testing"

	"silkmoth"
)

// checkFunnel asserts the per-stage arithmetic every explain capture must
// satisfy: candidates split exactly across the check filter, check-filter
// survivors split exactly across the NN filter, and every NN survivor of a
// signatured pass is verified.
func checkFunnel(t *testing.T, label string, ex ExplainJSON) {
	t.Helper()
	if ex.Passes == 0 {
		t.Fatalf("%s: explain recorded no passes", label)
	}
	if ex.Candidates != ex.AfterCheck+ex.CheckPruned {
		t.Fatalf("%s: candidates %d != after_check %d + check_pruned %d",
			label, ex.Candidates, ex.AfterCheck, ex.CheckPruned)
	}
	if ex.AfterCheck != ex.AfterNN+ex.NNPruned {
		t.Fatalf("%s: after_check %d != after_nn %d + nn_pruned %d",
			label, ex.AfterCheck, ex.AfterNN, ex.NNPruned)
	}
	if ex.FullScans == 0 && ex.Verified != ex.AfterNN {
		t.Fatalf("%s: signatured pass verified %d != after_nn %d",
			label, ex.Verified, ex.AfterNN)
	}
	if ex.Scheme == "" {
		t.Fatalf("%s: explain missing scheme (counts %v, full scans %d)",
			label, ex.Schemes, ex.FullScans)
	}
}

// TestExplainEndpoint pins GET and POST /v1/explain on serial and sharded
// engines: a consistent funnel, a concrete scheme, and matches identical
// to a plain /v1/search.
func TestExplainEndpoint(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig()
			cfg.Shards = shards
			eng, err := silkmoth.NewEngine(testSets(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := New(eng, cfg, Options{})

			body := `{"set":{"elements":["77 Mass Ave Boston MA","5th St Seattle WA","State St Chicago IL"]}}`
			w := postJSON(t, s, "/v1/explain", body)
			if w.Code != http.StatusOK {
				t.Fatalf("POST explain: %d: %s", w.Code, w.Body.String())
			}
			resp := decode[BatchItemJSON](t, w)
			checkFunnel(t, "post", *resp.Explain)
			if resp.Explain.Passes != 1 {
				t.Fatalf("explain passes %d, want one per query at %d shards", resp.Explain.Passes, eng.Shards())
			}

			plain := postJSON(t, s, "/v1/search", body)
			plainResp := decode[BatchItemJSON](t, plain)
			if len(plainResp.Matches) != len(resp.Matches) {
				t.Fatalf("explain returned %d matches, search %d", len(resp.Matches), len(plainResp.Matches))
			}
			for i := range resp.Matches {
				if resp.Matches[i] != plainResp.Matches[i] {
					t.Fatalf("match %d differs: explain %+v search %+v", i, resp.Matches[i], plainResp.Matches[i])
				}
			}

			g := get(t, s, "/v1/explain?e=77+Mass+Ave+Boston+MA&e=5th+St+Seattle+WA&e=State+St+Chicago+IL")
			if g.Code != http.StatusOK {
				t.Fatalf("GET explain: %d: %s", g.Code, g.Body.String())
			}
			gresp := decode[BatchItemJSON](t, g)
			checkFunnel(t, "get", *gresp.Explain)
			// The filters' similarity counts are work counts: the same query
			// against the same engine repeats them exactly — all but the
			// split of φ requests between kernel and memo, which depends on
			// how a pass was cut into chunks — and a candidate is reached
			// through at least one compared element pair.
			px, gx := *resp.Explain, *gresp.Explain
			sims := func(x ExplainJSON) [3]int64 {
				return [3]int64{x.SimEvals + x.SimMemoHits, x.SimCounted, x.SimBounded}
			}
			if p := sims(px); px.SimEvals == 0 || p[0]+p[1]+p[2] < px.Candidates {
				t.Fatalf("sim_evals + sim_memo_hits, sim_counted, sim_bounded = %v for %d candidates", p, px.Candidates)
			}
			if sims(gx) != sims(px) {
				t.Fatalf("sim counts do not repeat: POST %v, GET %v", sims(px), sims(gx))
			}
			if len(gresp.Matches) != len(resp.Matches) {
				t.Fatalf("GET explain %d matches, POST %d", len(gresp.Matches), len(resp.Matches))
			}
		})
	}
}

// TestExplainFilterToggles checks the what-if knobs: disabling the NN
// filter may only move candidates from nn_pruned to verified, never change
// matches.
func TestExplainFilterToggles(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	on := decode[BatchItemJSON](t, postJSON(t, s, "/v1/explain",
		`{"set":{"elements":["77 Mass Ave Boston MA","5th St Seattle WA"]}}`))
	off := decode[BatchItemJSON](t, postJSON(t, s, "/v1/explain",
		`{"set":{"elements":["77 Mass Ave Boston MA","5th St Seattle WA"]},"disable_nn_filter":true,"disable_check_filter":true}`))
	checkFunnel(t, "filters-on", *on.Explain)
	checkFunnel(t, "filters-off", *off.Explain)
	if off.Explain.NNPruned != 0 || off.Explain.CheckPruned != 0 {
		t.Fatalf("disabled filters still pruned: %+v", off.Explain)
	}
	if len(on.Matches) != len(off.Matches) {
		t.Fatalf("filter toggles changed matches: %d vs %d", len(on.Matches), len(off.Matches))
	}
	if off.Explain.Verified < on.Explain.Verified {
		t.Fatalf("filters off verified %d < filters on %d", off.Explain.Verified, on.Explain.Verified)
	}
}

// TestSearchExplainField pins the explain request field on /v1/search and
// its cache bypass: explained responses are never served from or stored in
// the cache.
func TestSearchExplainField(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"set":{"elements":["77 Mass Ave Boston MA","5th St Seattle WA"]},"explain":true}`
	w := postJSON(t, s, "/v1/search", body)
	if w.Code != http.StatusOK {
		t.Fatalf("search explain: %d: %s", w.Code, w.Body.String())
	}
	resp := decode[BatchItemJSON](t, w)
	if resp.Explain == nil {
		t.Fatal("explain:true returned no explain block")
	}
	checkFunnel(t, "search", *resp.Explain)
	w2 := postJSON(t, s, "/v1/search", body)
	if got := w2.Header().Get("X-Silkmoth-Cache"); got == "hit" {
		t.Fatal("explained search response was served from cache")
	}
}

// TestExplainDisabled pins the -no-explain server mode: the endpoint 404s
// and explain request fields are rejected.
func TestExplainDisabled(t *testing.T) {
	s, _ := newTestServer(t, Options{DisableExplain: true})
	if w := postJSON(t, s, "/v1/explain", `{"set":{"elements":["x"]}}`); w.Code != http.StatusNotFound {
		t.Fatalf("explain endpoint with DisableExplain: got %d, want 404", w.Code)
	}
	if w := postJSON(t, s, "/v1/search", `{"set":{"elements":["x"]},"explain":true}`); w.Code != http.StatusBadRequest {
		t.Fatalf("explain field with DisableExplain: got %d, want 400", w.Code)
	}
}

// TestSearchSchemeAndDeltaOverrides pins the per-request knobs on
// /v1/search: a pinned scheme returns identical matches (schemes never
// change results), a δ override matches an engine built with that δ, and
// malformed values 400.
func TestSearchSchemeAndDeltaOverrides(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	base := decode[BatchItemJSON](t, postJSON(t, s, "/v1/search",
		`{"set":{"elements":["77 Mass Ave Boston MA","5th St Seattle WA"]}}`))
	for _, scheme := range []string{"dichotomy", "skyline", "weighted", "combunweighted", "auto"} {
		w := postJSON(t, s, "/v1/search",
			`{"set":{"elements":["77 Mass Ave Boston MA","5th St Seattle WA"]},"scheme":"`+scheme+`"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("scheme %s: %d: %s", scheme, w.Code, w.Body.String())
		}
		resp := decode[BatchItemJSON](t, w)
		if len(resp.Matches) != len(base.Matches) {
			t.Fatalf("scheme %s changed result count: %d vs %d", scheme, len(resp.Matches), len(base.Matches))
		}
	}

	// δ = 0.9 keeps only near-identical sets; the looser base must have at
	// least as many matches, and a fresh engine at 0.9 must agree exactly.
	tight := decode[BatchItemJSON](t, postJSON(t, s, "/v1/search",
		`{"set":{"elements":["77 Mass Ave Boston MA","5th St Seattle WA","State St Chicago IL"]},"delta":0.9}`))
	cfg9 := testConfig()
	cfg9.Delta = 0.9
	eng9, err := silkmoth.NewEngine(testSets(), cfg9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng9.Search(silkmoth.Set{Elements: []string{"77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tight.Matches) != len(want) {
		t.Fatalf("delta override found %d matches, fresh δ=0.9 engine %d", len(tight.Matches), len(want))
	}
	for i, m := range want {
		got := tight.Matches[i]
		if got.Index != m.Index || got.Relatedness != m.Relatedness || got.MatchingScore != m.MatchingScore {
			t.Fatalf("delta override match %d: got %+v want %+v", i, got, m)
		}
	}

	if w := postJSON(t, s, "/v1/search", `{"set":{"elements":["x"]},"scheme":"bogus"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bogus scheme: got %d, want 400", w.Code)
	}
	if w := postJSON(t, s, "/v1/search", `{"set":{"elements":["x"]},"delta":1.5}`); w.Code != http.StatusBadRequest {
		t.Fatalf("delta 1.5: got %d, want 400", w.Code)
	}
	// JSON cannot carry NaN, a query string can: it parses as a float and
	// compares false with both ends of the range.
	for _, d := range []string{"NaN", "Inf", "-Inf", "-0.5"} {
		if w := get(t, s, "/v1/explain?e=x&delta="+d); w.Code != http.StatusBadRequest {
			t.Fatalf("GET explain delta=%s: got %d, want 400", d, w.Code)
		}
	}
}

// TestBatchPerItemSchemes pins the batch per-item override surface: pinned
// items report the pinned concrete scheme, auto items report Auto's
// per-query choice, and matches stay identical across pins.
func TestBatchPerItemSchemes(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig()
			cfg.Scheme = silkmoth.SchemeAuto
			cfg.Shards = shards
			eng, err := silkmoth.NewEngine(testSets(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := New(eng, cfg, Options{})

			body := `{"sets":[
				{"elements":["77 Mass Ave Boston MA","5th St Seattle WA"]},
				{"elements":["77 Mass Ave Boston MA","5th St Seattle WA"]},
				{"elements":["77 Mass Ave Boston MA","5th St Seattle WA"]}],
				"schemes":["skyline","",  "dichotomy"]}`
			w := postJSON(t, s, "/v1/search/batch", body)
			if w.Code != http.StatusOK {
				t.Fatalf("batch schemes: %d: %s", w.Code, w.Body.String())
			}
			resp := decode[batchSearchResponse](t, w)
			if len(resp.Results) != 3 {
				t.Fatalf("got %d results, want 3", len(resp.Results))
			}
			if got := resp.Results[0].Scheme; got != "skyline" {
				t.Fatalf("pinned skyline item reports scheme %q", got)
			}
			if got := resp.Results[2].Scheme; got != "dichotomy" {
				t.Fatalf("pinned dichotomy item reports scheme %q", got)
			}
			if got := resp.Results[1].Scheme; got == "" {
				t.Fatal("auto item reports no chosen scheme")
			}
			for i := 1; i < 3; i++ {
				if len(resp.Results[i].Matches) != len(resp.Results[0].Matches) {
					t.Fatalf("item %d matches differ from item 0 despite identical sets", i)
				}
				for j := range resp.Results[i].Matches {
					if resp.Results[i].Matches[j] != resp.Results[0].Matches[j] {
						t.Fatalf("item %d match %d differs: %+v vs %+v",
							i, j, resp.Results[i].Matches[j], resp.Results[0].Matches[j])
					}
				}
			}

			// Misaligned schemes array is rejected before any work.
			bad := postJSON(t, s, "/v1/search/batch",
				`{"sets":[{"elements":["x"]}],"schemes":["auto","auto"]}`)
			if bad.Code != http.StatusBadRequest {
				t.Fatalf("misaligned schemes: got %d, want 400", bad.Code)
			}
		})
	}
}

// TestBatchExplain pins per-item explain on the batch endpoint, including
// funnel consistency per item and the cache bypass.
func TestBatchExplain(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"sets":[
		{"elements":["77 Mass Ave Boston MA","5th St Seattle WA"]},
		{"elements":[]},
		{"elements":["red bicycle","blue kettle"]}],
		"explain":true}`
	w := postJSON(t, s, "/v1/search/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch explain: %d: %s", w.Code, w.Body.String())
	}
	resp := decode[batchSearchResponse](t, w)
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[1].Error == "" || resp.Results[1].Explain != nil {
		t.Fatalf("invalid item should carry an error and no explain: %+v", resp.Results[1])
	}
	for _, i := range []int{0, 2} {
		if resp.Results[i].Explain == nil {
			t.Fatalf("item %d missing explain", i)
		}
		checkFunnel(t, fmt.Sprintf("item %d", i), *resp.Results[i].Explain)
	}
	w2 := postJSON(t, s, "/v1/search/batch", body)
	if got := w2.Header().Get("X-Silkmoth-Cache"); got == "hit" {
		t.Fatal("explained batch response was served from cache")
	}
}

// TestStatsReportsSchemeName pins the Scheme.String plumbing into
// /v1/stats.
func TestStatsReportsSchemeName(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = silkmoth.SchemeAuto
	eng, err := silkmoth.NewEngine(testSets(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, cfg, Options{})
	resp := decode[statsResponse](t, get(t, s, "/v1/stats"))
	if resp.ConfiguredScheme != "auto" {
		t.Fatalf("stats scheme = %q, want auto", resp.ConfiguredScheme)
	}
}
