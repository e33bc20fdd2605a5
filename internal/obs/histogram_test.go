package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketOfBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5 * time.Second, 0}, // negative clamps into the first bucket
		{0, 0},
		{time.Microsecond, 0},            // exactly bound 0 → bucket 0 (le is inclusive)
		{time.Microsecond + 1, 1},        // one past bound 0
		{2 * time.Microsecond, 1},        // exactly bound 1
		{2*time.Microsecond + 1, 2},      // one past bound 1
		{1024 * time.Microsecond, 10},    // exactly bound 10 (1µs<<10)
		{1024*time.Microsecond + 1, 11},  // one past bound 10
		{time.Second, 20},                // 1µs<<20 ≈ 1.049s > 1s
		{1 << 26 * time.Microsecond, 26}, // last finite bound, ~67s
		{2 * time.Minute, NumBounds},     // overflow → +Inf bucket
	}
	for _, c := range cases {
		d := c.d
		if d < 0 {
			d = 0 // Observe clamps; bucketOf assumes non-negative
		}
		if got := bucketOf(d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBucketBoundsAscending(t *testing.T) {
	b := BucketBounds()
	if len(b) != NumBounds {
		t.Fatalf("len = %d, want %d", len(b), NumBounds)
	}
	if b[0] != 1e-6 {
		t.Errorf("first bound = %g, want 1e-06", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Errorf("bound %d = %g, want %g", i, b[i], 2*b[i-1])
		}
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(90 * time.Second)
	h.Observe(-time.Second) // clamps to 0

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Counts[0] != 2 { // 500ns and the clamped negative
		t.Errorf("bucket 0 = %d, want 2", s.Counts[0])
	}
	if s.Counts[2] != 2 { // 3µs ∈ (2µs, 4µs]
		t.Errorf("bucket 2 = %d, want 2", s.Counts[2])
	}
	if s.Counts[NumBounds] != 1 { // 90s overflows
		t.Errorf("+Inf bucket = %d, want 1", s.Counts[NumBounds])
	}
	wantSum := int64(500 + 2*3000 + 90*1e9)
	if s.SumNanos != wantSum {
		t.Errorf("SumNanos = %d, want %d", s.SumNanos, wantSum)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket total %d != Count %d", total, s.Count)
	}
}

func TestHistogramSnapshotAdd(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Microsecond)
	a.Observe(time.Second)
	b.Observe(time.Millisecond)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Add(sb)
	if sa.Count != 3 {
		t.Fatalf("merged Count = %d, want 3", sa.Count)
	}
	if want := int64(1000 + 1e9 + 1e6); sa.SumNanos != want {
		t.Errorf("merged SumNanos = %d, want %d", sa.SumNanos, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("Count = %d, want %d", got, goroutines*per)
	}
}

func TestObserveAllocs(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(37 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", allocs)
	}
}

func TestWriteHistogramFormat(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Microsecond)
	h.Observe(2 * time.Minute)

	var unlabeled, labeled bytes.Buffer
	WriteFamilies(&unlabeled, Family{"x_seconds", "histogram", "test histogram", []Series{h.Snapshot().Series("")}})
	WriteFamilies(&labeled, Family{"y_seconds", "histogram", "labeled test histogram", []Series{h.Snapshot().Series(`path="/v1/search"`)}})

	out := unlabeled.String()
	if strings.Contains(out, "{}") || strings.Contains(out, "{,") || strings.Contains(out, ",le=") {
		t.Errorf("unlabeled render has stray label syntax:\n%s", out)
	}
	if !strings.Contains(out, `x_seconds_bucket{le="+Inf"} 2`) {
		t.Errorf("missing +Inf terminal:\n%s", out)
	}
	if !strings.Contains(out, "x_seconds_count 2") {
		t.Errorf("missing bare _count:\n%s", out)
	}
	lout := labeled.String()
	if !strings.Contains(lout, `y_seconds_bucket{path="/v1/search",le="1e-06"} 0`) {
		t.Errorf("labeled bucket line malformed:\n%s", lout)
	}
	if !strings.Contains(lout, `y_seconds_count{path="/v1/search"} 2`) {
		t.Errorf("labeled _count malformed:\n%s", lout)
	}

	// Both renders must survive the conformance parser.
	for _, page := range []string{out, lout} {
		fams, err := ParseText(strings.NewReader(page))
		if err != nil {
			t.Fatalf("ParseText: %v\n%s", err, page)
		}
		if err := Validate(fams); err != nil {
			t.Fatalf("Validate: %v\n%s", err, page)
		}
	}
}
