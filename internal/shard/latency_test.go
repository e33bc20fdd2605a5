package shard

import (
	"context"
	"testing"
	"time"

	"silkmoth/internal/datagen"
)

func TestShardLatenciesObserved(t *testing.T) {
	coll := wordColl(datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 60, Seed: 3}))
	e, err := New(coll, 3, jaccardOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	const queries = 5
	for i := 0; i < queries; i++ {
		if _, err := e.SearchContext(context.Background(), &coll.Sets[0]); err != nil {
			t.Fatal(err)
		}
	}
	ls := e.ShardLatencies()
	if len(ls) != 3 {
		t.Fatalf("got %d shard latency snapshots, want 3", len(ls))
	}
	for s, h := range ls {
		if h.Count != queries {
			t.Errorf("shard %d observed %d scatter passes, want %d", s, h.Count, queries)
		}
	}
	// Merged stage latencies must cover every timed pass (StageSample
	// defaults on, and 5 queries × 3 shards may or may not sample — just
	// check the merge is well-formed, not a specific count).
	for s, h := range e.StageLatencies() {
		if h.Count < 0 || h.SumNanos < 0 {
			t.Errorf("stage %d merged snapshot negative: %+v", s, h)
		}
	}
}

func TestNoteStraggler(t *testing.T) {
	e := &Engine{}
	ms := int64(time.Millisecond)
	cases := []struct {
		name string
		durs []int64
		want int64
	}{
		{"balanced", []int64{10 * ms, 11 * ms, 9 * ms, 10 * ms}, 0},
		{"straggler", []int64{10 * ms, 10 * ms, 10 * ms, 50 * ms}, 1},
		{"below floor", []int64{10, 10, 10, 50}, 0}, // nanoseconds: all noise
		{"single shard", []int64{50 * ms}, 0},
	}
	for _, c := range cases {
		before := e.Stragglers()
		e.noteStraggler(c.durs)
		if got := e.Stragglers() - before; got != c.want {
			t.Errorf("%s: straggler delta = %d, want %d", c.name, got, c.want)
		}
	}
}
