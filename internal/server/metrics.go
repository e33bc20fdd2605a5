package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"silkmoth/internal/obs"
)

// metrics collects the server's request-side counters, which families
// lists as rows of the /metrics table. Its hot path — observe, called once
// per request — takes no lock: per-route latency histograms are
// pre-registered in a read-only map at construction (the route label space
// is bounded by knownPaths), and the {path, code} request counters live in
// a copy-on-write map where only the first observation of a new pair pays
// a mutex.
type metrics struct {
	start time.Time

	inflight    int64
	cacheHits   int64
	cacheMisses int64

	// queueDepth counts requests waiting for a worker-pool slot; queueHWM
	// is the deepest the queue has ever been (admission-control sizing).
	queueDepth int64
	queueHWM   int64

	// Rejections split by cause: the pool never freed a slot within the
	// request's budget (pool_full), or the engine gave up mid-query on a
	// deadline (timeout) or a client hangup (cancelled).
	rejectPoolFull  int64
	rejectTimeout   int64
	rejectCancelled int64

	// routeHist maps every route label to its latency histogram. Built
	// once in newMetrics and never mutated, so observe reads it lock-free.
	routeHist map[string]*obs.Histogram

	// counts holds requests_total{path,code}. The map value is immutable;
	// inserting a new pair copies it under countsMu, while bumping an
	// existing pair is one atomic add. Bounded because paths and status
	// codes are.
	counts   atomic.Value // map[routeKey]*int64
	countsMu sync.Mutex
}

type routeKey struct {
	path string
	code int
}

func newMetrics() *metrics {
	m := &metrics{start: time.Now()}
	m.routeHist = make(map[string]*obs.Histogram, len(knownPaths)+1)
	for path := range knownPaths {
		m.routeHist[path] = &obs.Histogram{}
	}
	m.routeHist[otherRoute] = &obs.Histogram{}
	m.counts.Store(make(map[routeKey]*int64))
	return m
}

// observe records one served request. path must already be normalized to a
// route label (metricPath); the fast path is histogram bucketing plus two
// atomic adds.
func (m *metrics) observe(path string, code int, d time.Duration) {
	h := m.routeHist[path]
	if h == nil {
		h = m.routeHist[otherRoute] // metricPath should prevent this
	}
	h.Observe(d)
	key := routeKey{path: path, code: code}
	counts := m.counts.Load().(map[routeKey]*int64)
	c := counts[key]
	if c == nil {
		c = m.registerCount(key)
	}
	atomic.AddInt64(c, 1)
}

// registerCount inserts a counter for a first-seen {path, code} pair by
// copying the map — readers keep going lock-free on the old snapshot.
func (m *metrics) registerCount(key routeKey) *int64 {
	m.countsMu.Lock()
	defer m.countsMu.Unlock()
	counts := m.counts.Load().(map[routeKey]*int64)
	if c := counts[key]; c != nil {
		return c // another request registered it while we waited
	}
	next := make(map[routeKey]*int64, len(counts)+1)
	for k, v := range counts {
		next[k] = v
	}
	c := new(int64)
	next[key] = c
	m.counts.Store(next)
	return c
}

func (m *metrics) addInflight(n int64) { atomic.AddInt64(&m.inflight, n) }

// enterQueue marks one request waiting for a pool slot, ratcheting the
// high-water mark.
func (m *metrics) enterQueue() {
	d := atomic.AddInt64(&m.queueDepth, 1)
	for {
		hwm := atomic.LoadInt64(&m.queueHWM)
		if d <= hwm || atomic.CompareAndSwapInt64(&m.queueHWM, hwm, d) {
			return
		}
	}
}

func (m *metrics) exitQueue() { atomic.AddInt64(&m.queueDepth, -1) }

// Rejection causes. rejectPoolFull is charged when a request never got a
// worker slot; the other two when the engine aborted a running query.
const (
	causePoolFull  = "pool_full"
	causeTimeout   = "timeout"
	causeCancelled = "cancelled"
)

func (m *metrics) reject(cause string) {
	switch cause {
	case causePoolFull:
		atomic.AddInt64(&m.rejectPoolFull, 1)
	case causeTimeout:
		atomic.AddInt64(&m.rejectTimeout, 1)
	case causeCancelled:
		atomic.AddInt64(&m.rejectCancelled, 1)
	}
}

func (m *metrics) cacheHit()             { atomic.AddInt64(&m.cacheHits, 1) }
func (m *metrics) cacheMiss()            { atomic.AddInt64(&m.cacheMisses, 1) }
func (m *metrics) hits() int64           { return atomic.LoadInt64(&m.cacheHits) }
func (m *metrics) misses() int64         { return atomic.LoadInt64(&m.cacheMisses) }
func (m *metrics) uptime() time.Duration { return time.Since(m.start) }

// families is the request-side part of the /metrics table: uptime, the
// worker pool, rejections, result-cache outcomes, and per-route request
// counts and latency.
func (m *metrics) families() []obs.Family {
	counts := m.counts.Load().(map[routeKey]*int64)
	keys := make([]routeKey, 0, len(counts))
	for key := range counts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].code < keys[j].code
	})
	requests := obs.Family{Name: "silkmothd_requests_total", Type: "counter", Help: "Requests served, by path and status code."}
	for _, key := range keys {
		requests.Series = append(requests.Series, obs.Series{
			Labels: fmt.Sprintf("path=%q,code=\"%d\"", key.path, key.code),
			Value:  float64(atomic.LoadInt64(counts[key])),
		})
	}
	paths := make([]string, 0, len(m.routeHist))
	for path := range m.routeHist {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	latency := obs.Family{Name: "silkmothd_request_seconds", Type: "histogram", Help: "Request latency by route."}
	for _, path := range paths {
		latency.Series = append(latency.Series, m.routeHist[path].Snapshot().Series(fmt.Sprintf("path=%q", path)))
	}
	return []obs.Family{
		obs.Gauge("silkmothd_uptime_seconds", "Seconds since the server started.", m.uptime().Seconds()),
		obs.Gauge("silkmothd_inflight_requests", "Query requests currently executing.", atomic.LoadInt64(&m.inflight)),
		obs.Gauge("silkmothd_queue_depth", "Requests waiting for a worker-pool slot.", atomic.LoadInt64(&m.queueDepth)),
		obs.Gauge("silkmothd_queue_depth_high_water", "Deepest the worker-pool queue has been since startup.", atomic.LoadInt64(&m.queueHWM)),
		obs.Labelled("silkmothd_rejections_total", "counter", "Query requests that failed without a full result, by cause.",
			"cause", []string{causePoolFull, causeTimeout, causeCancelled},
			atomic.LoadInt64(&m.rejectPoolFull), atomic.LoadInt64(&m.rejectTimeout), atomic.LoadInt64(&m.rejectCancelled)),
		obs.Counter("silkmothd_cache_hits_total", "Result-cache hits, one per query (each batch item counts).", m.hits()),
		obs.Counter("silkmothd_cache_misses_total", "Result-cache misses, one per query (each batch item counts).", m.misses()),
		requests,
		latency,
	}
}
