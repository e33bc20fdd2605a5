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

// explainRequest is the POST /v1/explain body: a search request plus
// filter toggles for interactive what-if tuning (how many more candidates
// reach verification with a filter off?).
type explainRequest struct {
	Set    SetJSON `json:"set"`
	K      int     `json:"k,omitempty"`
	Scheme string  `json:"scheme,omitempty"`
	Delta  float64 `json:"delta,omitempty"`
	// DisableCheckFilter / DisableNNFilter turn pipeline stages off for
	// this query only. Results never change — only the funnel does.
	DisableCheckFilter bool `json:"disable_check_filter,omitempty"`
	DisableNNFilter    bool `json:"disable_nn_filter,omitempty"`
}

type explainResponse struct {
	Matches []MatchJSON `json:"matches"`
	Explain ExplainJSON `json:"explain"`
}

// handleExplain serves GET/POST /v1/explain: it runs one search and
// returns its matches together with the plan's execution metadata —
// chosen concrete scheme, signature token count, per-stage survivor
// counts, wall time — making filter and scheme tuning self-service.
//
// POST takes an explainRequest body. GET takes query parameters for
// curl-friendly poking: repeated e=<element> for the reference set's
// elements, plus optional k, scheme, delta. Explain responses are never
// cached (wall time would go stale).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if s.opts.DisableExplain {
		writeError(w, http.StatusNotFound, "explain is disabled on this server")
		return
	}
	var req explainRequest
	if r.Method == http.MethodGet {
		if !parseExplainQuery(w, r, &req) {
			return
		}
	} else if err := s.decodeBody(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.Set.Elements) == 0 {
		writeError(w, http.StatusBadRequest, "set.elements must be non-empty (GET: repeated e= parameters)")
		return
	}
	if req.K < 0 {
		writeError(w, http.StatusBadRequest, "k must be >= 0")
		return
	}
	var ex silkmoth.Explain
	opts, ok := s.overrides(w, req.Scheme, req.Delta, true, &ex)
	if !ok {
		return
	}
	if req.K >= 1 {
		opts = append(opts, silkmoth.WithK(req.K))
	}
	if req.DisableCheckFilter {
		opts = append(opts, silkmoth.WithCheckFilter(false))
	}
	if req.DisableNNFilter {
		opts = append(opts, silkmoth.WithNNFilter(false))
	}

	ctx, cancel := s.queryCtx(r)
	defer cancel()
	if !s.acquire(ctx, w) {
		return
	}
	defer s.release()

	ms, err := s.eng.SearchContext(ctx, req.Set.toSet(), opts...)
	if err != nil {
		s.writeQueryErr(w, err)
		return
	}
	s.logSlow(r, "/v1/explain", &ex, nil)
	writeJSON(w, http.StatusOK, explainResponse{
		Matches: matchesJSON(ms),
		Explain: *explainJSON(&ex),
	})
}

// parseExplainQuery fills req from GET query parameters, reporting false
// (response written) on malformed values.
func parseExplainQuery(w http.ResponseWriter, r *http.Request, req *explainRequest) bool {
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
