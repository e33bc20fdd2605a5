package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"silkmoth"
	"silkmoth/internal/obs"
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

// TestFunnelOnEverySurface walks silkmoth.Funnel's fields: each must be a
// key of the explain object, of /v1/stats's engine block and of the
// slow-query line, and the value of its own silkmothd_engine_*_total
// counter family in /metrics. A counter added to the record and left off
// one surface fails here.
func TestFunnelOnEverySurface(t *testing.T) {
	var logs bytes.Buffer
	s, _ := newTestServer(t, Options{SlowQuerySample: 1, LogWriter: &logs})
	w := postJSON(t, s, "/v1/explain", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("explain = %d (%s)", w.Code, w.Body)
	}
	explain := decode[struct {
		Explain map[string]json.RawMessage `json:"explain"`
	}](t, w).Explain
	engine := decode[struct {
		Engine map[string]json.RawMessage `json:"engine"`
	}](t, get(t, s, "/v1/stats")).Engine
	var slow map[string]json.RawMessage
	if err := json.Unmarshal(logs.Bytes(), &slow); err != nil {
		t.Fatalf("want one slow-query line: %v\n%s", err, logs.Bytes())
	}
	fams, err := obs.ParseText(get(t, s, "/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}
	counters := make(map[string]bool)
	for _, f := range fams {
		counters[f.Name] = f.Type == "counter"
	}

	// Give every field a distinct value to tell which family carries it.
	var st silkmoth.Stats
	fv := reflect.ValueOf(&st.Funnel).Elem()
	for i := range fv.NumField() {
		fv.Field(i).SetInt(int64(1000 + i))
	}
	family := make(map[int64]string)
	for _, c := range engineCounters(&st) {
		family[c.value] = c.name
	}
	for i := range fv.NumField() {
		field := fv.Type().Field(i)
		key, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		for _, surface := range []struct {
			name string
			keys map[string]json.RawMessage
		}{{"explain", explain}, {"/v1/stats engine", engine}, {"slow-query line", slow}} {
			if _, ok := surface.keys[key]; !ok {
				t.Errorf("Funnel.%s: no %q key in the %s", field.Name, key, surface.name)
			}
		}
		name := family[int64(1000+i)]
		if !strings.HasPrefix(name, "silkmothd_engine_") || !strings.HasSuffix(name, "_total") {
			t.Errorf("Funnel.%s: no silkmothd_engine_*_total family in engineCounters (got %q)", field.Name, name)
		} else if !counters[name] {
			t.Errorf("Funnel.%s: /metrics has no counter family %s", field.Name, name)
		}
	}
}
