package server

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	selections := e.Scheme.SchemeWeighted + e.Scheme.SchemeSkyline + e.Scheme.SchemeDichotomy + e.Scheme.SchemeCombUnweighted
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

// TestStatsOnEverySurface walks every field of every block silkmoth.Stats
// embeds. Each must be a key of its /v1/stats block, and that key's value
// the value of the field's sample in /metrics, found by charging the field
// alone and seeing which sample of the server's table moves. Funnel fields
// must also be keys of the explain object and of the slow-query line. A
// counter added to a block and left off a surface fails here.
func TestStatsOnEverySurface(t *testing.T) {
	// A recovered, compressed, mapped engine with a replayed log record, so
	// that the durability and storage blocks carry non-zero values.
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	cfg.CompressedPostings = true
	eng, err := silkmoth.NewEngine(testSets(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Add([]silkmoth.Set{{Name: "pois", Elements: []string{"77 Mass Ave Boston MA", "Pike Pl Seattle WA"}}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if eng, err = silkmoth.NewEngine(nil, cfg); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var logs bytes.Buffer
	s := New(eng, cfg, Options{SlowQuerySample: 1, LogWriter: &logs})
	w := postJSON(t, s, "/v1/explain", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("explain = %d (%s)", w.Code, w.Body)
	}
	if w := postJSON(t, s, "/v1/sets", `{"sets": [{"elements": ["Elm St Austin TX"]}]}`); w.Code != http.StatusOK {
		t.Fatalf("add = %d (%s)", w.Code, w.Body)
	}
	explain := decode[struct {
		Explain map[string]json.RawMessage `json:"explain"`
	}](t, w).Explain
	var slow map[string]json.RawMessage
	if err := json.Unmarshal(logs.Bytes(), &slow); err != nil {
		t.Fatalf("want one slow-query line: %v\n%s", err, logs.Bytes())
	}
	stats := decode[map[string]any](t, get(t, s, "/v1/stats"))
	fams, err := obs.ParseText(get(t, s, "/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}
	scraped := make(map[string]float64)
	for _, f := range fams {
		for _, smp := range f.Samples {
			labels := ""
			for k, v := range smp.Labels {
				labels = fmt.Sprintf("%s=%q", k, v) // a Stats field's family has at most one label
			}
			scraped[f.Name+"{"+labels+"}"] = smp.Value
		}
	}
	// table renders the server's /metrics table for st as sample → value.
	table := func(st *silkmoth.Stats) map[string]float64 {
		out := make(map[string]float64)
		for _, f := range s.families(st) {
			for _, smp := range f.Series {
				if f.Type != "histogram" {
					out[f.Name+"{"+smp.Labels+"}"] = smp.Value
				}
			}
		}
		return out
	}
	base := table(&silkmoth.Stats{})

	blocks := map[string]string{"Funnel": "engine", "SchemeCounts": "engine.scheme", "PostingStorage": "storage", "Durability": "durability"}
	// The logical posting count is served in /v1/stats only; /metrics
	// reports posting storage in bytes.
	jsonOnly := map[string]bool{"Postings": true}
	statsType := reflect.TypeOf(silkmoth.Stats{})
	var nonZero int
	for bi := range statsType.NumField() {
		block := statsType.Field(bi)
		if !block.Anonymous {
			continue
		}
		path, ok := blocks[block.Name]
		if !ok {
			t.Errorf("Stats embeds %s, which has no /v1/stats block in this test", block.Name)
			continue
		}
		obj := stats
		for _, k := range strings.Split(path, ".") {
			obj, _ = obj[k].(map[string]any)
		}
		for fi := range block.Type.NumField() {
			field := block.Type.Field(fi)
			name := block.Name + "." + field.Name
			key, _, _ := strings.Cut(field.Tag.Get("json"), ",")
			raw, ok := obj[key]
			if !ok {
				t.Errorf("%s: no %q key in the /v1/stats %s block", name, key, path)
				continue
			}
			if block.Name == "Funnel" {
				for _, surface := range []struct {
					name string
					keys map[string]json.RawMessage
				}{{"explain object", explain}, {"slow-query line", slow}} {
					if _, ok := surface.keys[key]; !ok {
						t.Errorf("%s: no %q key in the %s", name, key, surface.name)
					}
				}
			}
			if jsonOnly[field.Name] {
				continue
			}
			var st silkmoth.Stats
			fv := reflect.ValueOf(&st).Elem().Field(bi).Field(fi)
			if fv.Kind() == reflect.Bool {
				fv.SetBool(true)
			} else {
				fv.SetInt(7)
			}
			var moved []string
			for sample, v := range table(&st) {
				if v != base[sample] {
					moved = append(moved, sample)
				}
			}
			if len(moved) != 1 {
				t.Errorf("%s: charging it moves %d /metrics samples %v, want 1", name, len(moved), moved)
				continue
			}
			// A labelled sample's label value names its field's JSON key
			// (heap_bytes is form="heap"), so two swapped series fail too.
			if _, label, ok := strings.Cut(moved[0], `="`); ok && !strings.Contains(key, strings.TrimSuffix(label, `"}`)) {
				t.Errorf("%s: charging it moves %s, labelled for another key than %q", name, moved[0], key)
			}
			var want float64
			switch v := raw.(type) {
			case float64:
				want = v
			case bool:
				if v {
					want = 1
				}
			}
			if want != 0 {
				nonZero++
			}
			if got, ok := scraped[moved[0]]; !ok || got != want {
				t.Errorf("%s: /metrics %s = %v (present %v), /v1/stats %s.%s = %v", name, moved[0], got, ok, path, key, raw)
			}
		}
	}
	if nonZero < 10 {
		t.Errorf("only %d Stats block fields were non-zero: the fixture checks too little", nonZero)
	}
}
