package server

import (
	"net/http"
	"strconv"

	"silkmoth"
)

// ExplainJSON is a query's execution metadata on the wire: the concrete
// signature scheme that probed the index, the pruning funnel
// (silkmoth.Funnel), wall time in microseconds, and where it went: the
// caller's nanoseconds per pipeline stage and the helpers' busy time. It is
// /v1/explain's and an explained batch item's "explain" object, and the
// body of a slow-query log line.
type ExplainJSON struct {
	Scheme  string           `json:"scheme"`
	Schemes map[string]int64 `json:"schemes,omitempty"`
	Passes  int64            `json:"passes"`
	silkmoth.Funnel
	ElapsedUS int64   `json:"elapsed_us"`
	StageNS   stageNS `json:"stage_ns"`
	HelperNS  int64   `json:"helper_ns"`
}

// stageNS is silkmoth.StageTimes in nanoseconds.
type stageNS struct {
	Signature int64 `json:"signature"`
	Collect   int64 `json:"collect"`
	Refine    int64 `json:"refine"`
	Verify    int64 `json:"verify"`
}

func explainJSON(ex *silkmoth.Explain) *ExplainJSON {
	return &ExplainJSON{
		Scheme:    ex.Scheme,
		Schemes:   ex.Schemes,
		Passes:    ex.Passes,
		Funnel:    ex.Funnel,
		ElapsedUS: ex.Elapsed.Microseconds(),
		StageNS: stageNS{
			Signature: ex.Stages.Signature.Nanoseconds(),
			Collect:   ex.Stages.Collect.Nanoseconds(),
			Refine:    ex.Stages.Refine.Nanoseconds(),
			Verify:    ex.Stages.Verify.Nanoseconds(),
		},
		HelperNS: ex.HelperTime.Nanoseconds(),
	}
}

// parseExplainQuery fills req from GET /v1/explain's query parameters —
// repeated e=<element> for the reference set's elements, plus optional name,
// k, scheme, delta, no_check_filter and no_nn_filter (booleans as
// strconv.ParseBool reads them) — reporting false (response written) on
// malformed values.
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
	for _, f := range []struct {
		name string
		dst  *bool
	}{{"no_check_filter", &req.DisableCheckFilter}, {"no_nn_filter", &req.DisableNNFilter}} {
		if raw := q.Get(f.name); raw != "" {
			b, err := strconv.ParseBool(raw)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%s must be a boolean: %q", f.name, raw)
				return false
			}
			*f.dst = b
		}
	}
	return true
}
