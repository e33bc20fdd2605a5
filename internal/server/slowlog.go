package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"silkmoth"
)

// Slow-query capture: query handlers attach a server-side explain capture
// to the engine call (never changing the response body), and after the
// query finishes its full execution funnel — chosen scheme, per-stage
// survivor counts, per-stage wall time, shard count — is emitted as one
// JSON line when the query was slow or drawn by the 1-in-N sample. Cache
// hits skip capture entirely: they never touch the engine, and a cached
// answer is never the slow one.

// captureSlow reports whether query handlers should capture server-side
// execution metadata: a log destination exists and at least one trigger
// (threshold or sample) is configured.
func (s *Server) captureSlow() bool {
	return s.log.Enabled() && (s.opts.SlowQueryThreshold > 0 || s.opts.SlowQuerySample > 0)
}

// slowReason decides whether one finished query's funnel gets logged:
// "threshold" when its engine time met SlowQueryThreshold, "sampled" when
// the 1-in-N baseline drew it, "" to skip. Threshold wins so a slow query
// is always labeled slow, and sampling only consumes a draw when the
// threshold did not fire.
func (s *Server) slowReason(elapsed time.Duration) string {
	if t := s.opts.SlowQueryThreshold; t > 0 && elapsed >= t {
		return "threshold"
	}
	if n := s.opts.SlowQuerySample; n > 0 && atomic.AddInt64(&s.slowSeq, 1)%int64(n) == 0 {
		return "sampled"
	}
	return ""
}

// slowQueryLine is one slow-query log line: the query's ExplainJSON,
// tagged with the request id so fan-out (batch items share their request's
// id) stays correlated, the route, why it was logged, the engine's width,
// and a batch item's position.
type slowQueryLine struct {
	RequestID string `json:"request_id"`
	Route     string `json:"route"`
	Reason    string `json:"reason"`
	*ExplainJSON
	Shards     int  `json:"shards"`
	BatchIndex *int `json:"batch_index,omitempty"`
}

// logSlow emits one query's explain as a slow-query line on the server's
// log writer, if slowReason draws it. batchIndex is the query's position
// in its batch, or -1 for a query that is not a batch item.
func (s *Server) logSlow(r *http.Request, route string, ex *silkmoth.Explain, batchIndex int) {
	if !s.log.Enabled() {
		return
	}
	reason := s.slowReason(ex.Elapsed)
	if reason == "" {
		return
	}
	line := slowQueryLine{
		RequestID:   requestID(r),
		Route:       route,
		Reason:      reason,
		ExplainJSON: explainJSON(ex),
		Shards:      s.eng.Shards(),
	}
	if batchIndex >= 0 {
		line.BatchIndex = &batchIndex
	}
	s.log.EmitRecord("slow_query", line)
}
