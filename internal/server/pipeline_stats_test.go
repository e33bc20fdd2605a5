package server

import (
	"net/http"
	"strings"
	"testing"

	"silkmoth"
)

// TestPipelineFunnelStats checks that the per-stage pipeline counters —
// signature size, candidate funnel, check/NN prunes, scheme selections —
// reach /v1/stats after real query traffic, and that the funnel's
// arithmetic holds (candidates = after_check + check_pruned).
func TestPipelineFunnelStats(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = silkmoth.SchemeAuto
	eng, err := silkmoth.NewEngine(testSets(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, cfg, Options{})

	for i := 0; i < 3; i++ {
		w := postJSON(t, s, "/v1/discover-against",
			`{"sets": [{"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA"]}], "nocache": true}`)
		if w.Code != http.StatusOK {
			t.Fatalf("discover-against = %d (%s)", w.Code, w.Body)
		}
	}

	w := get(t, s, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats = %d", w.Code)
	}
	resp := decode[statsResponse](t, w)
	e := resp.Engine
	if e.SearchPasses == 0 {
		t.Fatal("no search passes recorded")
	}
	if e.SigTokens == 0 {
		t.Fatalf("sig_tokens = 0 after %d passes", e.SearchPasses)
	}
	if e.Candidates != e.AfterCheck+e.CheckPruned {
		t.Fatalf("funnel mismatch: candidates %d != after_check %d + check_pruned %d",
			e.Candidates, e.AfterCheck, e.CheckPruned)
	}
	if e.AfterCheck != e.AfterNN+e.NNPruned {
		t.Fatalf("funnel mismatch: after_check %d != after_nn %d + nn_pruned %d",
			e.AfterCheck, e.AfterNN, e.NNPruned)
	}
	if pairs := e.SimEvals + e.SimMemoHits + e.SimCounted + e.SimBounded; e.SimEvals == 0 || pairs < e.Candidates {
		t.Fatalf("sim_evals %d + sim_memo_hits %d + sim_counted %d + sim_bounded %d for %d candidates",
			e.SimEvals, e.SimMemoHits, e.SimCounted, e.SimBounded, e.Candidates)
	}
	selections := e.Scheme.Weighted + e.Scheme.Skyline + e.Scheme.Dichotomy + e.Scheme.CombUnweighted
	if selections != e.SearchPasses-e.FullScans {
		t.Fatalf("scheme selections %d != signatured passes %d", selections, e.SearchPasses-e.FullScans)
	}
}

// TestPipelineFunnelMetrics checks the Prometheus rendering of the same
// counters.
func TestPipelineFunnelMetrics(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	postJSON(t, s, "/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`)
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	text := w.Body.String()
	for _, want := range []string{
		"silkmothd_engine_signature_tokens_total",
		"silkmothd_engine_candidates_total",
		"silkmothd_engine_check_pruned_total",
		"silkmothd_engine_nn_pruned_total",
		"silkmothd_engine_sim_evals_total",
		"silkmothd_engine_sim_memo_hits_total",
		"silkmothd_engine_sim_counted_total",
		"silkmothd_engine_sim_bounded_total",
		"silkmothd_engine_full_scans_total",
		`silkmothd_engine_scheme_selected_total{scheme="dichotomy"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
