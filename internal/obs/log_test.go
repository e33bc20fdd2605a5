package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLoggerEmitJSONLine(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC) }
	l.EmitRecord("slow_query", struct {
		RequestID string  `json:"request_id"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}{"abc-000001", 12.5})
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one newline-terminated line, got %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, line)
	}
	if m["event"] != "slow_query" || m["request_id"] != "abc-000001" {
		t.Errorf("fields: %v", m)
	}
	if m["ts"] != "2026-08-08T12:00:00.123456789Z" {
		t.Errorf("ts = %v", m["ts"])
	}
}

func TestLoggerEmitRecordKeepsFieldOrder(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	type inner struct {
		B int `json:"b"`
	}
	l.EmitRecord("slow_query", struct {
		Z string `json:"z"`
		inner
		A []int `json:"a"`
	}{"z", inner{2}, []int{1}})
	l.EmitRecord("empty", struct{}{})
	l.EmitRecord("bad", struct{ F func() }{})
	want := `{"ts":"2026-08-08T12:00:00Z","event":"slow_query","z":"z","b":2,"a":[1]}` + "\n" +
		`{"ts":"2026-08-08T12:00:00Z","event":"empty"}` + "\n" +
		`{"ts":"2026-08-08T12:00:00Z","event":"bad","error":"json: unsupported type: func()"}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.EmitRecord("x", struct{}{}) // must not panic
	NewLogger(nil).EmitRecord("x", struct{ K int }{1})
}

func TestLoggerConcurrentLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.EmitRecord("e", struct{ G, J int }{i, j})
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 16*50 {
		t.Fatalf("got %d lines, want %d", len(lines), 16*50)
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("interleaved line: %v\n%q", err, ln)
		}
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	const n = 10000
	seen := make(map[string]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]string, 0, n/8)
			for i := 0; i < n/8; i++ {
				local = append(local, NewRequestID())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate id %s", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
	for id := range seen {
		if !ValidRequestID(id) {
			t.Fatalf("minted id fails own validation: %q", id)
		}
	}
}

func TestValidRequestID(t *testing.T) {
	ok := []string{"abc", "trace-123", "a", strings.Repeat("x", 128)}
	bad := []string{"", "has space", "quo\"te", "back\\slash", "ctrl\x01", "utf8-é", strings.Repeat("x", 129)}
	for _, s := range ok {
		if !ValidRequestID(s) {
			t.Errorf("rejected valid id %q", s)
		}
	}
	for _, s := range bad {
		if ValidRequestID(s) {
			t.Errorf("accepted invalid id %q", s)
		}
	}
}

func TestBuildInfo(t *testing.T) {
	bi := ReadBuildInfo()
	if bi.GoVersion == "" {
		t.Error("empty GoVersion")
	}
	if bi.Version == "" {
		t.Error("empty Version")
	}
}

func TestRuntimeAndBuildInfoMetricsScrapeable(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeMetrics(&buf)
	WriteBuildInfoMetric(&buf)
	fams, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if err := Validate(fams); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := map[string]bool{
		"silkmothd_goroutines": false, "silkmothd_heap_alloc_bytes": false,
		"silkmothd_build_info": false,
	}
	for _, f := range fams {
		if _, ok := want[f.Name]; ok {
			want[f.Name] = true
		}
	}
	for name, ok := range want {
		if !ok {
			t.Errorf("missing family %s", name)
		}
	}
}
