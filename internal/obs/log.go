package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Logger writes structured one-line JSON events. Every line carries ts
// (RFC3339Nano) and event; callers add arbitrary fields. A mutex
// serializes writes so concurrent requests never interleave bytes of a
// line — the logger sits off the query hot path (access and slow-query
// logging only), so the lock is not a throughput concern.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	now func() time.Time // test seam; nil means time.Now
}

// NewLogger returns a Logger writing JSON lines to w. A nil w yields a
// logger whose Emit is a no-op, so call sites need no nil checks.
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: w}
}

// Enabled reports whether the logger has a destination.
func (l *Logger) Enabled() bool { return l != nil && l.w != nil }

// Emit writes one JSON line for event with the given fields. Fields named
// "ts" or "event" are ignored in favor of the logger's own. Marshal
// failures of individual values degrade to their fmt representation
// rather than dropping the line.
func (l *Logger) Emit(event string, fields map[string]any) {
	if !l.Enabled() {
		return
	}
	line := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		if k == "ts" || k == "event" {
			continue
		}
		line[k] = v
	}
	line["ts"] = l.timestamp()
	line["event"] = event
	buf, err := json.Marshal(line)
	if err != nil {
		// A value resisted marshaling (chan, func, NaN). Re-render every
		// field through fmt so the event still lands.
		safe := make(map[string]any, len(line))
		for k, v := range line {
			switch v.(type) {
			case string, bool, int, int64, uint64, float64, json.Number, nil:
				safe[k] = v
			default:
				safe[k] = fmt.Sprint(v)
			}
		}
		buf, _ = json.Marshal(safe)
	}
	l.write(buf)
}

// EmitRecord writes one JSON line for event: ts and event, then rec's
// fields in rec's order. rec is a struct that marshals without error and
// has no "ts" or "event" key of its own.
func (l *Logger) EmitRecord(event string, rec any) {
	if !l.Enabled() {
		return
	}
	body, err := json.Marshal(rec)
	if err != nil {
		l.Emit(event, map[string]any{"error": err.Error()})
		return
	}
	buf, _ := json.Marshal(struct {
		TS    string `json:"ts"`
		Event string `json:"event"`
	}{l.timestamp(), event})
	if len(body) > 2 {
		buf[len(buf)-1] = ','
		buf = append(buf, body[1:]...)
	}
	l.write(buf)
}

func (l *Logger) timestamp() string {
	now := time.Now
	if l.now != nil {
		now = l.now
	}
	return now().UTC().Format(time.RFC3339Nano)
}

// write appends the newline and writes one line whole.
func (l *Logger) write(buf []byte) {
	buf = append(buf, '\n')
	l.mu.Lock()
	l.w.Write(buf)
	l.mu.Unlock()
}

// Request ids: a per-process random 8-hex prefix plus an atomic counter —
// unique within and across silkmothd restarts without coordination, cheap
// enough to mint on every request.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to the startup time; uniqueness across processes
			// degrades but ids stay usable.
			binary.BigEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
		}
		return fmt.Sprintf("%08x", binary.BigEndian.Uint32(b[:]))
	}()
	ridCounter uint64
)

// NewRequestID mints a process-unique request id like "9f3a1c08-000042".
func NewRequestID() string {
	n := atomic.AddUint64(&ridCounter, 1)
	return fmt.Sprintf("%s-%06x", ridPrefix, n)
}

// ValidRequestID reports whether a caller-supplied X-Request-Id is safe to
// propagate and log: non-empty, at most 128 bytes, and printable ASCII
// without spaces, quotes, or backslashes (so it can never break a JSON
// line or header).
func ValidRequestID(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}
