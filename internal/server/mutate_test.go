package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"silkmoth"
)

// newMutTestServer is newTestServer with automatic compaction disabled,
// so tombstone counts stay observable on the tiny corpus (the default
// threshold would compact after a single delete of three sets).
func newMutTestServer(t *testing.T) (*Server, *silkmoth.Engine) {
	t.Helper()
	cfg := testConfig()
	cfg.CompactionThreshold = -1
	eng, err := silkmoth.NewEngine(testSets(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(eng, cfg, Options{}), eng
}

// doJSON issues a request with an optional JSON body under any method.
func doJSON(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func TestDeleteSet(t *testing.T) {
	s, eng := newMutTestServer(t)

	w := doJSON(t, s, http.MethodDelete, "/v1/sets/2", "")
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	resp := decode[deleteSetResponse](t, w)
	if resp.Deleted != 2 || resp.Live != 2 || resp.Generation != 1 {
		t.Fatalf("delete response = %+v", resp)
	}
	if eng.Live(2) {
		t.Fatal("set 2 should be dead")
	}
	if eng.Len() != 2 {
		t.Fatalf("Len = %d, want 2", eng.Len())
	}

	// Stats reflect the tombstone, the live count, and the generation.
	st := decode[statsResponse](t, get(t, s, "/v1/stats"))
	if st.Sets != 2 || st.Tombstones != 1 || st.Generation != 1 {
		t.Fatalf("stats = sets %d tombstones %d generation %d, want 2/1/1", st.Sets, st.Tombstones, st.Generation)
	}

	// Deleting again, or deleting the never-existing, is 404.
	for _, path := range []string{"/v1/sets/2", "/v1/sets/99", "/v1/sets/-1"} {
		if w := doJSON(t, s, http.MethodDelete, path, ""); w.Code != http.StatusNotFound {
			t.Fatalf("DELETE %s code = %d, want 404", path, w.Code)
		}
	}
	// A non-integer id is 400.
	if w := doJSON(t, s, http.MethodDelete, "/v1/sets/abc", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("DELETE /v1/sets/abc code = %d, want 400", w.Code)
	}
}

func TestDeleteConflict(t *testing.T) {
	s, _ := newTestServer(t, Options{})

	// A stale generation token must conflict and change nothing.
	w := doJSON(t, s, http.MethodDelete, "/v1/sets/0?if_generation=41", "")
	if w.Code != http.StatusConflict {
		t.Fatalf("stale delete code = %d, want 409", w.Code)
	}
	st := decode[statsResponse](t, get(t, s, "/v1/stats"))
	if st.Sets != 3 || st.Generation != 0 {
		t.Fatalf("conflicting delete mutated state: %+v", st)
	}

	// The current generation applies cleanly.
	if w := doJSON(t, s, http.MethodDelete, "/v1/sets/0?if_generation=0", ""); w.Code != http.StatusOK {
		t.Fatalf("conditional delete code = %d, body %s", w.Code, w.Body)
	}
	// A malformed token is 400, not a silent unconditional delete.
	if w := doJSON(t, s, http.MethodDelete, "/v1/sets/1?if_generation=xyz", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed if_generation code = %d, want 400", w.Code)
	}
}

func TestUpdateSet(t *testing.T) {
	s, eng := newMutTestServer(t)

	body := `{"set": {"name": "products-v2", "elements": ["silver bicycle", "blue kettle", "green lamp"]}}`
	w := doJSON(t, s, http.MethodPut, "/v1/sets/2", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	resp := decode[updateSetResponse](t, w)
	if resp.Replaced != 2 || resp.ID != 3 || resp.Live != 3 || resp.Generation != 1 {
		t.Fatalf("update response = %+v", resp)
	}
	if eng.Live(2) || !eng.Live(3) {
		t.Fatal("old id should be dead, new id live")
	}
	if name := eng.SetName(3); name != "products-v2" {
		t.Fatalf("new set name = %q", name)
	}

	// The old id is gone for good: updating or deleting it is 404.
	if w := doJSON(t, s, http.MethodPut, "/v1/sets/2", body); w.Code != http.StatusNotFound {
		t.Fatalf("update of dead id code = %d, want 404", w.Code)
	}
	if w := doJSON(t, s, http.MethodDelete, "/v1/sets/2", ""); w.Code != http.StatusNotFound {
		t.Fatalf("delete of dead id code = %d, want 404", w.Code)
	}

	// Validation: unknown id, empty elements, stale generation (body field).
	if w := doJSON(t, s, http.MethodPut, "/v1/sets/77", body); w.Code != http.StatusNotFound {
		t.Fatalf("update of unknown id code = %d, want 404", w.Code)
	}
	if w := doJSON(t, s, http.MethodPut, "/v1/sets/0", `{"set": {"elements": []}}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty update code = %d, want 400", w.Code)
	}
	stale := `{"set": {"elements": ["x"]}, "if_generation": 0}`
	if w := doJSON(t, s, http.MethodPut, "/v1/sets/0", stale); w.Code != http.StatusConflict {
		t.Fatalf("stale conditional update code = %d, want 409", w.Code)
	}
	fresh := fmt.Sprintf(`{"set": {"elements": ["x y z"]}, "if_generation": %d}`, resp.Generation)
	if w := doJSON(t, s, http.MethodPut, "/v1/sets/0", fresh); w.Code != http.StatusOK {
		t.Fatalf("current-generation conditional update code = %d, body %s", w.Code, w.Body)
	}
}

// TestDeleteInvalidatesCache pins the lifecycle's cache-coherence rule: a
// cached query result must never serve a set deleted after it was stored.
func TestDeleteInvalidatesCache(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"set": {"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}}`

	w := postJSON(t, s, "/v1/search", body)
	if w.Code != http.StatusOK || w.Header().Get("X-Silkmoth-Cache") != "miss" {
		t.Fatalf("first search: code %d cache %q", w.Code, w.Header().Get("X-Silkmoth-Cache"))
	}
	first := decode[BatchItemJSON](t, w)
	found := false
	for _, m := range first.Matches {
		if m.Name == "locations" {
			found = true
		}
	}
	if !found {
		t.Fatalf("locations should match before the delete: %+v", first.Matches)
	}
	if w = postJSON(t, s, "/v1/search", body); w.Header().Get("X-Silkmoth-Cache") != "hit" {
		t.Fatal("second search should be served from cache")
	}

	// Delete "locations" (id 1): the cached result must not survive.
	if w = doJSON(t, s, http.MethodDelete, "/v1/sets/1", ""); w.Code != http.StatusOK {
		t.Fatalf("delete code = %d", w.Code)
	}
	w = postJSON(t, s, "/v1/search", body)
	if w.Header().Get("X-Silkmoth-Cache") != "miss" {
		t.Fatal("search after delete must not be served from the stale cache")
	}
	after := decode[BatchItemJSON](t, w)
	for _, m := range after.Matches {
		if m.Name == "locations" || m.Index == 1 {
			t.Fatalf("deleted set served after delete: %+v", after.Matches)
		}
	}
}

// TestMetricsLifecycleGauges checks the tombstone/compaction/generation
// series appear on /metrics and move with mutations.
func TestMetricsLifecycleGauges(t *testing.T) {
	s, _ := newMutTestServer(t)
	if w := doJSON(t, s, http.MethodDelete, "/v1/sets/0", ""); w.Code != http.StatusOK {
		t.Fatalf("delete code = %d", w.Code)
	}
	body := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"silkmothd_collection_sets 2",
		"silkmothd_collection_tombstones 1",
		"silkmothd_mutation_generation 1",
		"silkmothd_engine_compactions_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}
