package silkmoth_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"silkmoth"
	"silkmoth/internal/server"
)

// TestCorruptContainerFailsQueries: the nearest-neighbor filter and
// verification read similarities off the postings, so a container that
// fails to decode could lower a score, not just lose a candidate. A query
// that met one must say so — ErrPostingDecode from Search, SearchTopK and
// DiscoverAgainst, on the failing items only of a batch, a 500 from the
// server — while queries that never touch the corrupt list keep answering
// exactly as a healthy engine does.
func TestCorruptContainerFailsQueries(t *testing.T) {
	sets := []silkmoth.Set{
		{Name: "addresses", Elements: []string{"77 Mass Ave Boston", "5th St Seattle"}},
		{Name: "locations", Elements: []string{"77 Mass Ave Boston MA", "5th St Seattle WA"}},
		{Name: "products", Elements: []string{"red bicycle", "blue kettle"}},
		{Name: "catalog", Elements: []string{"red bicycle shop", "blue kettle"}},
	}
	cfg := silkmoth.Config{Similarity: silkmoth.Jaccard, Delta: 0.5, CompressedPostings: true}
	healthy, err := silkmoth.NewEngine(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := silkmoth.NewEngine(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := silkmoth.CorruptContainerForTest(eng, "Boston"); err != nil {
		t.Fatal(err)
	}
	hit, clear := sets[0], sets[2] // "Boston" is in the first, not in the second

	if ms, err := eng.Search(hit); !errors.Is(err, silkmoth.ErrPostingDecode) || ms != nil {
		t.Errorf("Search over the corrupt list = (%v, %v), want no matches and ErrPostingDecode", ms, err)
	}
	if ms, err := eng.SearchTopK(hit, 2); !errors.Is(err, silkmoth.ErrPostingDecode) || ms != nil {
		t.Errorf("SearchTopK over the corrupt list = (%v, %v), want no matches and ErrPostingDecode", ms, err)
	}
	if ps, err := eng.DiscoverAgainst([]silkmoth.Set{clear, hit}); !errors.Is(err, silkmoth.ErrPostingDecode) || ps != nil {
		t.Errorf("DiscoverAgainst over the corrupt list = (%v, %v), want no pairs and ErrPostingDecode", ps, err)
	}
	if res, err := eng.SearchBatchQueries([]silkmoth.BatchQuery{{Set: hit}}); err != nil || !errors.Is(res[0].Err, silkmoth.ErrPostingDecode) {
		t.Errorf("one-item batch over the corrupt list = (%v, %v), want its item's ErrPostingDecode", res, err)
	}
	if eng.Stats().PostingDecodeErrors == 0 {
		t.Error("Stats.PostingDecodeErrors did not move")
	}

	want, err := healthy.Search(clear)
	if err != nil || len(want) == 0 {
		t.Fatalf("healthy Search = (%v, %v), want matches", want, err)
	}
	if got, err := eng.Search(clear); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Search that never reads the corrupt list = (%v, %v), want %v", got, err, want)
	}
	res, err := eng.SearchBatchQueries([]silkmoth.BatchQuery{{Set: clear}, {Set: hit}, {Set: clear}})
	if err != nil {
		t.Fatalf("SearchBatchQueries: %v; a corrupt list fails its items, not the batch", err)
	}
	for i, r := range res {
		if i == 1 {
			if !errors.Is(r.Err, silkmoth.ErrPostingDecode) || len(r.Matches) != 0 {
				t.Errorf("batch item 1 = (%v, %v), want no matches and ErrPostingDecode", r.Matches, r.Err)
			}
		} else if r.Err != nil || !reflect.DeepEqual(r.Matches, want) {
			t.Errorf("batch item %d = (%v, %v), want %v", i, r.Matches, r.Err, want)
		}
	}

	srv := server.New(eng, cfg, server.Options{})
	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w
	}
	body := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	type setJSON struct {
		Elements []string `json:"elements"`
	}
	for path, req := range map[string]any{
		"/v1/search":           map[string]any{"set": setJSON{hit.Elements}},
		"/v1/topk":             map[string]any{"set": setJSON{hit.Elements}, "k": 1},
		"/v1/explain":          map[string]any{"set": setJSON{hit.Elements}},
		"/v1/discover-against": map[string]any{"sets": []setJSON{{hit.Elements}}},
	} {
		w := post(path, body(req))
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusInternalServerError || err != nil || !strings.Contains(e.Error, "posting container") {
			t.Errorf("POST %s over the corrupt list: %d %s, want 500 with a JSON error naming the posting container", path, w.Code, w.Body)
		}
	}
	for round := 0; round < 2; round++ { // the second round must not be a cached copy of a failure
		w := post("/v1/search/batch", body(map[string]any{"sets": []setJSON{{clear.Elements}, {hit.Elements}}}))
		var resp struct {
			Results []server.BatchItemJSON `json:"results"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil || len(resp.Results) != 2 {
			t.Fatalf("POST /v1/search/batch: %d %s", w.Code, w.Body)
		}
		if r := resp.Results[0]; r.Error != "" || len(r.Matches) != len(want) {
			t.Errorf("batch item 0 over HTTP = %+v, want %d matches and no error", r, len(want))
		}
		if r := resp.Results[1]; !strings.Contains(r.Error, "posting container") || len(r.Matches) != 0 {
			t.Errorf("batch item 1 over HTTP = %+v, want a per-item posting-container error and no matches", r)
		}
		if w.Header().Get("X-Silkmoth-Cache") == "hit" {
			t.Error("a batch response holding a decode failure was served from the result cache")
		}
	}
}
