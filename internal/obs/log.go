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
// (RFC3339Nano) and event, then the fields of the caller's record. A mutex
// serializes writes so concurrent requests never interleave bytes of a
// line — the logger sits off the query hot path (access and slow-query
// logging only), so the lock is not a throughput concern.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	now func() time.Time // test seam; nil means time.Now
}

// NewLogger returns a Logger writing JSON lines to w. A nil w yields a
// logger whose EmitRecord is a no-op, so call sites need no nil checks.
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: w}
}

// Enabled reports whether the logger has a destination.
func (l *Logger) Enabled() bool { return l != nil && l.w != nil }

// EmitRecord writes one JSON line for event: ts and event, then rec's
// fields in rec's order. rec is a struct with no "ts", "event" or "error"
// key of its own; if it fails to marshal, the line carries an "error" field
// in place of its fields.
func (l *Logger) EmitRecord(event string, rec any) {
	if !l.Enabled() {
		return
	}
	head := struct {
		TS    string `json:"ts"`
		Event string `json:"event"`
		Error string `json:"error,omitempty"`
	}{TS: l.timestamp(), Event: event}
	body, err := json.Marshal(rec)
	if err != nil {
		// The line still lands, carrying the marshal error instead of rec.
		head.Error, body = err.Error(), nil
	}
	buf, _ := json.Marshal(head)
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
