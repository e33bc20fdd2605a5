// Package obs is silkmoth's dependency-free observability substrate:
// atomic fixed-bucket latency histograms, one writer for the Prometheus text
// exposition format (WriteFamilies), a structured JSON line logger with
// request ids, build/runtime introspection gauges, and a minimal parser for
// the same format (used by the conformance tests and the promcheck CLI so
// /metrics can never silently drift out of scrape-ability).
//
// Everything here is safe for concurrent use and allocation-free on the
// hot path (Histogram.Observe), so instrumentation can ride
// inside the engine's zero-alloc query pipeline.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBounds is the number of finite histogram bucket upper bounds; every
// histogram additionally has a terminal +Inf bucket, so NumBuckets counts
// one more.
//
// Bounds are log-spaced powers of two from 1µs to ~67s (1µs<<26): wide
// enough to cover a sub-microsecond plan stage and a straggling set-id
// range of a split search in the same shape, with constant-time bucketing
// (one bit-length instruction, no search).
const (
	NumBounds  = 27
	NumBuckets = NumBounds + 1
)

// bound0 is the first bucket's upper bound in nanoseconds (1µs); bound i
// is bound0 << i.
const bound0 = int64(1000)

// BucketBounds returns the finite upper bounds in seconds, ascending. The
// slice is freshly allocated; callers may keep it.
func BucketBounds() []float64 {
	out := make([]float64, NumBounds)
	for i := range out {
		out[i] = float64(bound0<<i) / 1e9
	}
	return out
}

// bucketOf returns the index of the bucket a duration falls in:
// bucket 0 is (-∞, 1µs], bucket i is (1µs<<(i-1), 1µs<<i], and bucket
// NumBounds is the +Inf overflow.
func bucketOf(d time.Duration) int {
	n := int64(d)
	if n <= bound0 {
		return 0
	}
	// Smallest i with n <= bound0<<i, i.e. the bit length of the
	// microsecond count rounded up.
	i := bits.Len64(uint64((n - 1) / bound0))
	if i >= NumBounds {
		return NumBounds
	}
	return i
}

// Histogram is a fixed-bucket log-spaced latency histogram over atomic
// counters. The zero value is ready to use; Observe is lock-free and
// allocation-free, so it can sit on per-request and per-pass hot paths.
// Histograms must not be copied after first use.
type Histogram struct {
	counts [NumBuckets]int64
	count  int64
	sum    int64 // nanoseconds
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	atomic.AddInt64(&h.counts[bucketOf(d)], 1)
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, int64(d))
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.count) }

// Snapshot returns a point-in-time copy of the histogram. Buckets are
// per-bucket (non-cumulative) counts; rendering accumulates them.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = atomic.LoadInt64(&h.counts[i])
	}
	s.Count = atomic.LoadInt64(&h.count)
	s.SumNanos = atomic.LoadInt64(&h.sum)
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, mergeable with
// others of the same shape.
type HistogramSnapshot struct {
	// Counts holds per-bucket observation counts: Counts[i] for bound
	// BucketBounds()[i], Counts[NumBounds] for +Inf.
	Counts [NumBuckets]int64
	// Count is the total number of observations (the sum of Counts).
	Count int64
	// SumNanos is the sum of all observed durations in nanoseconds.
	SumNanos int64
}

// Add folds another snapshot into s, as if o's observations had been made
// on s's histogram.
func (s *HistogramSnapshot) Add(o HistogramSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.SumNanos += o.SumNanos
}
