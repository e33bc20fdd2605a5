package server

import "silkmoth"

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
