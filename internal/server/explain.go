package server

import (
	"net/http"
	"strconv"

	"silkmoth"
)

// ExplainJSON is a query's execution metadata on the wire: the concrete
// signature scheme that probed the index, the per-stage pruning funnel
// (candidates = after_check + check_pruned; after_check = after_nn +
// nn_pruned; every after_nn survivor is verified), the filters' φ_α
// requests split into kernel calls and per-pass memo hits, and wall time
// in microseconds.
type ExplainJSON struct {
	Scheme      string           `json:"scheme"`
	Schemes     map[string]int64 `json:"schemes,omitempty"`
	Passes      int64            `json:"passes"`
	FullScans   int64            `json:"full_scans"`
	SigTokens   int64            `json:"sig_tokens"`
	Candidates  int64            `json:"candidates"`
	AfterCheck  int64            `json:"after_check"`
	CheckPruned int64            `json:"check_pruned"`
	AfterNN     int64            `json:"after_nn"`
	NNPruned    int64            `json:"nn_pruned"`
	Verified    int64            `json:"verified"`
	SimEvals    int64            `json:"sim_evals"`
	SimMemoHits int64            `json:"sim_memo_hits"`
	SimCounted  int64            `json:"sim_counted"`
	SimBounded  int64            `json:"sim_bounded"`
	ElapsedUS   int64            `json:"elapsed_us"`
}

func explainJSON(ex *silkmoth.Explain) *ExplainJSON {
	return &ExplainJSON{
		Scheme:      ex.Scheme,
		Schemes:     ex.Schemes,
		Passes:      ex.Passes,
		FullScans:   ex.FullScans,
		SigTokens:   ex.SigTokens,
		Candidates:  ex.Candidates,
		AfterCheck:  ex.AfterCheck,
		CheckPruned: ex.CheckPruned,
		AfterNN:     ex.AfterNN,
		NNPruned:    ex.NNPruned,
		Verified:    ex.Verified,
		SimEvals:    ex.SimEvals,
		SimMemoHits: ex.SimMemoHits,
		SimCounted:  ex.SimCounted,
		SimBounded:  ex.SimBounded,
		ElapsedUS:   ex.Elapsed.Microseconds(),
	}
}

// parseExplainQuery fills req from GET /v1/explain's query parameters —
// repeated e=<element> for the reference set's elements, plus optional name,
// k, scheme, delta, no_check_filter and no_nn_filter — reporting false
// (response written) on malformed values.
func parseExplainQuery(w http.ResponseWriter, r *http.Request, req *searchRequest) bool {
	q := r.URL.Query()
	req.Set = SetJSON{Name: q.Get("name"), Elements: q["e"]}
	req.Scheme = q.Get("scheme")
	if raw := q.Get("k"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "k must be an integer: %q", raw)
			return false
		}
		req.K = k
	}
	if raw := q.Get("delta"); raw != "" {
		d, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "delta must be a number: %q", raw)
			return false
		}
		req.Delta = d
	}
	req.DisableCheckFilter = q.Get("no_check_filter") == "1" || q.Get("no_check_filter") == "true"
	req.DisableNNFilter = q.Get("no_nn_filter") == "1" || q.Get("no_nn_filter") == "true"
	return true
}
