package server

import (
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"silkmoth"
)

// POST /v1/snapshot on a heap-only engine is a usage conflict, not a
// server error, and the stats durability block stays zeroed.
func TestSnapshotEndpointHeapOnly(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	w := postJSON(t, s, "/v1/snapshot", "")
	if w.Code != http.StatusConflict {
		t.Fatalf("code = %d, want 409: %s", w.Code, w.Body.String())
	}
	st := decode[statsResponse](t, get(t, s, "/v1/stats"))
	if st.Durability.Enabled || st.Durability.Snapshots != 0 || st.Durability.WALRecords != 0 {
		t.Fatalf("heap-only durability stats = %+v", st.Durability)
	}
}

// A durable server: mutations append WAL records, POST /v1/snapshot
// rotates, stats and metrics report the durability counters, and a server
// restarted on the same data directory recovers the full collection.
func TestSnapshotEndpointDurable(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	eng, err := silkmoth.NewEngine(testSets(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, cfg, Options{})

	w := postJSON(t, s, "/v1/sets", `{"sets":[{"name":"pois","elements":["77 Mass Ave Boston MA","Pike Pl Seattle WA"]}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("add: code = %d: %s", w.Code, w.Body.String())
	}

	w = postJSON(t, s, "/v1/snapshot", "")
	if w.Code != http.StatusOK {
		t.Fatalf("snapshot: code = %d: %s", w.Code, w.Body.String())
	}
	snap := decode[snapshotResponse](t, w)
	// Bootstrap wrote snapshot 1; this request wrote snapshot 2.
	if snap.Snapshots != 2 || snap.Sets != 4 || snap.Generation != 1 {
		t.Fatalf("snapshot response = %+v", snap)
	}

	st := decode[statsResponse](t, get(t, s, "/v1/stats"))
	d := st.Durability
	if !d.Enabled || d.Snapshots != 2 || d.WALRecords != 1 || d.RecoveredSnapshot || d.WALReplayed != 0 || d.WALTornTail {
		t.Fatalf("durability stats = %+v", d)
	}

	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"silkmothd_snapshots_total 2",
		"silkmothd_wal_appends_total 1",
		"silkmothd_wal_replayed_records 0",
		"silkmothd_recovered_snapshot 0",
		"silkmothd_wal_torn_tail 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Restart on the same directory: the new server recovers the snapshot
	// (the rotation subsumed the WAL record) and serves all four sets.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, err := silkmoth.NewEngine(nil, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	s2 := New(eng2, cfg, Options{})
	st2 := decode[statsResponse](t, get(t, s2, "/v1/stats"))
	d2 := st2.Durability
	if !d2.Enabled || !d2.RecoveredSnapshot || d2.WALReplayed != 0 || d2.WALTornTail {
		t.Fatalf("post-restart durability stats = %+v", d2)
	}
	health := decode[healthResponse](t, get(t, s2, "/healthz"))
	if health.Sets != 4 {
		t.Fatalf("recovered server serves %d sets, want 4", health.Sets)
	}
}

// dirSizes lists a data directory as file name → size.
func dirSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(ents))
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = info.Size()
	}
	return out
}

// /v1/compare on a durable server hands silkmoth.Compare the server's own
// Config, data directory included. The answer must be about the two posted
// sets — not about whatever the directory holds — and the request must
// leave the directory as it found it.
func TestCompareDurable(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	eng, err := silkmoth.NewEngine(testSets(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s := New(eng, cfg, Options{})
	w := postJSON(t, s, "/v1/sets", `{"sets":[{"name":"pois","elements":["Pike Pl Seattle WA"]}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("add: code = %d: %s", w.Code, w.Body.String())
	}
	before := dirSizes(t, cfg.DataDir)

	w = postJSON(t, s, "/v1/compare", `{"r": {"elements": ["Elm St Austin TX", "Oak St Denver CO"]}, "s": {"elements": ["Elm St Austin TX", "Oak St Denver CO"]}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("compare: code = %d: %s", w.Code, w.Body.String())
	}
	if rel := decode[compareResponse](t, w).Relatedness; rel != 1 {
		t.Fatalf("identical sets relatedness = %g on a durable server, want 1", rel)
	}
	if after := dirSizes(t, cfg.DataDir); !reflect.DeepEqual(after, before) {
		t.Fatalf("compare changed the data directory: %v, was %v", after, before)
	}
}
