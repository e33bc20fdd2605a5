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

// logSlow emits one query's funnel as a single JSON line on the server's
// log writer, tagged with the request id so fan-out (batch items share
// their request's id) stays correlated. extra merges endpoint-specific
// fields (like a batch item's index) into the line.
func (s *Server) logSlow(r *http.Request, route string, ex *silkmoth.Explain, extra map[string]any) {
	if !s.log.Enabled() {
		return
	}
	reason := s.slowReason(ex.Elapsed)
	if reason == "" {
		return
	}
	fields := map[string]any{
		"request_id":    requestID(r),
		"route":         route,
		"reason":        reason,
		"elapsed_us":    ex.Elapsed.Microseconds(),
		"scheme":        ex.Scheme,
		"passes":        ex.Passes,
		"full_scans":    ex.FullScans,
		"sig_tokens":    ex.SigTokens,
		"candidates":    ex.Candidates,
		"after_check":   ex.AfterCheck,
		"check_pruned":  ex.CheckPruned,
		"after_nn":      ex.AfterNN,
		"nn_pruned":     ex.NNPruned,
		"verified":      ex.Verified,
		"sim_evals":     ex.SimEvals,
		"sim_memo_hits": ex.SimMemoHits,
		"sim_counted":   ex.SimCounted,
		"sim_bounded":   ex.SimBounded,
		"stage_ns": map[string]int64{
			"signature": ex.Stages.Signature.Nanoseconds(),
			"collect":   ex.Stages.Collect.Nanoseconds(),
			"refine":    ex.Stages.Refine.Nanoseconds(),
			"verify":    ex.Stages.Verify.Nanoseconds(),
		},
		"helper_ns": ex.HelperTime.Nanoseconds(),
		"shards":    s.eng.Shards(),
	}
	for k, v := range extra {
		fields[k] = v
	}
	s.log.Emit("slow_query", fields)
}
