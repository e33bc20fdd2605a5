package obs

import (
	"fmt"
	"io"
	"runtime"
)

// WriteRuntimeMetrics renders process-level runtime gauges in Prometheus
// text format: goroutine count, heap usage, and cumulative GC activity.
// It reads runtime.MemStats, which briefly stops the world — fine at
// scrape frequency, not for hot paths.
func WriteRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	WriteFamilies(w,
		Gauge("silkmothd_goroutines", "Number of live goroutines.", runtime.NumGoroutine()),
		Gauge("silkmothd_heap_alloc_bytes", "Bytes of allocated heap objects.", ms.HeapAlloc),
		Gauge("silkmothd_heap_sys_bytes", "Bytes of heap obtained from the OS.", ms.HeapSys),
		Counter("silkmothd_gc_runs_total", "Completed GC cycles.", ms.NumGC),
		Counter("silkmothd_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs)/1e9),
	)
}

// WriteBuildInfoMetric renders the silkmothd_build_info gauge: constant 1
// with the binary's identity in labels, the conventional pattern for
// joining version metadata onto other series.
func WriteBuildInfoMetric(w io.Writer) {
	bi := ReadBuildInfo()
	WriteFamilies(w, Family{"silkmothd_build_info", "gauge", "Build metadata of the running binary; constant 1.", []Series{{
		Labels: fmt.Sprintf("version=%q,go=%q,revision=%q", bi.Version, bi.GoVersion, bi.Revision),
		Value:  1,
	}}})
}
