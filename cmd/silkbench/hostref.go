package main

import (
	"slices"
	"time"
)

// The benchmark runs on a few cores of a shared host whose speed changes
// under it: the same Discover call, alone in the process, took between 1.2
// and 2.1 s within one minute while a dependent chain of shifts stayed
// within 6 % — what varies is how many instructions a cycle the core
// retires, as when a neighbour occupies its sibling thread, and it stays
// that way for tens of seconds, as long as a whole run. Longer rounds,
// more rounds and best-of-rounds all leave that in the result.
//
// So every timed slice of work is bracketed by a frozen reference kernel,
// and its time is divided by how much slower than refNominal the kernel ran
// beside it. The kernel is part of the benchmark and no change to the
// repository can speed it up; a slice is tens of milliseconds, short
// against the minutes over which the host drifts. Interleaved this way the
// kernel's time followed a Discover's to within 3 % over 12 s windows in
// which the Discover's own time spread 21 %. Timing metrics are therefore
// in host-normalised units: microseconds on a host that runs the kernel in
// refNominal. Raw wall-clock values are printed beside them.

// refNominal is the reference kernel's time between slices on the machine
// the workloads were sized on, when that machine is quiet: there a
// normalised time is the time a stopwatch shows.
const refNominal = 1450 * time.Microsecond

const refIters = 500_000

var (
	refTable [8192]uint64
	refSink  uint64
)

// refReading runs the reference kernel three times and returns the middle
// time: a reading that an interrupt or a descheduled processor lengthened is
// dropped, a host that is slow for longer than a millisecond shows in all
// three.
func refReading() time.Duration {
	a, b, c := refKernel(), refKernel(), refKernel()
	return max(min(a, b), min(max(a, b), c))
}

// refKernel runs the reference kernel once and returns how long it took. Six
// dependency chains and loads and stores in a 64 KiB table keep several
// instructions in flight each cycle, like the engine's filter and
// similarity loops; a single dependent chain would not see the contention
// at all.
func refKernel() time.Duration {
	t0 := time.Now()
	a, b, c, d, e, f := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6)
	for i := 0; i < refIters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b<<13 ^ refTable[a>>51]
		c += refTable[b&8191] ^ a
		d = d*3 + c>>7
		e ^= d + uint64(i)
		f += e & a
		refTable[f&8191] = c
	}
	refSink += a + b + c + d + e + f
	return time.Since(t0)
}

// slicer cuts a round into slices, each bracketed by two readings of the
// reference kernel, and collects what the round measured. The time the
// kernel itself takes is in no slice.
type slicer struct {
	rr roundResult
	// ref holds the kernel's readings: ref[i] before slice i, ref[i+1]
	// after it.
	ref []time.Duration
	// wall, queries and writes hold each slice's wall time and the number
	// of rr.queryNs and rr.writeNs entries it had added by its end.
	wall            []time.Duration
	queries, writes []int
	t0              time.Time
}

// begin takes the first reading and starts the first slice.
func (s *slicer) begin() {
	s.ref = append(s.ref, refReading())
	s.t0 = time.Now()
}

// cut ends the current slice, takes a reading and starts the next slice.
func (s *slicer) cut() {
	s.wall = append(s.wall, time.Since(s.t0))
	s.queries = append(s.queries, len(s.rr.queryNs))
	s.writes = append(s.writes, len(s.rr.writeNs))
	s.ref = append(s.ref, refReading())
	s.t0 = time.Now()
}

// finish ends the last slice and returns the round.
func (s *slicer) finish() roundResult {
	s.cut()
	return s.scaled()
}

// scaled returns the round with its wall time and every latency scaled to the
// nominal host, slice by slice, and the unscaled values kept beside them.
func (s *slicer) scaled() roundResult {
	rr := s.rr
	rr.rawP50, rr.rawP99 = rawPercentiles(rr.queryNs)
	var wall, raw, ref time.Duration
	q0, w0 := 0, 0
	for i, w := range s.wall {
		// The host's speed during the slice is taken as the mean of the
		// readings on either side of it.
		near := (s.ref[i] + s.ref[i+1]) / 2
		scale := float64(refNominal) / float64(near)
		raw += w
		ref += near
		wall += time.Duration(float64(w) * scale)
		for j := q0; j < s.queries[i]; j++ {
			rr.queryNs[j] = int64(float64(rr.queryNs[j]) * scale)
		}
		for j := w0; j < s.writes[i]; j++ {
			rr.writeNs[j] = int64(float64(rr.writeNs[j]) * scale)
		}
		q0, w0 = s.queries[i], s.writes[i]
	}
	rr.wall, rr.rawWall = wall, raw
	rr.slowdown = float64(ref) / float64(len(s.wall)) / float64(refNominal)
	return rr
}

// timeScaled times fn between two readings of the reference kernel and
// returns its time on the nominal host and as measured.
func timeScaled(fn func()) (scaled, raw time.Duration) {
	before := refReading()
	t0 := time.Now()
	fn()
	raw = time.Since(t0)
	near := (before + refReading()) / 2
	return time.Duration(float64(raw) * float64(refNominal) / float64(near)), raw
}

// rawPercentiles returns the median and 99th percentile of latencies as
// measured, in microseconds.
func rawPercentiles(ns []int64) (p50, p99 float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	sorted := slices.Clone(ns)
	slices.Sort(sorted)
	return float64(percentile(sorted, 0.50)) / 1e3, float64(percentile(sorted, 0.99)) / 1e3
}
