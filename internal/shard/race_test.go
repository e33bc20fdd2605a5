package shard

import (
	"context"
	"sync"
	"testing"

	"silkmoth"
	"silkmoth/internal/core"
	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
)

// publicSets converts generated sets to the public engine's input.
func publicSets(raws []dataset.RawSet) []silkmoth.Set {
	out := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		out[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	return out
}

// batchOf makes one plain batch item of each set.
func batchOf(sets []silkmoth.Set) []silkmoth.BatchQuery {
	out := make([]silkmoth.BatchQuery, len(sets))
	for i, s := range sets {
		out[i].Set = s
	}
	return out
}

// newPublic builds the public engine at width 4 with Jaccard at δ = 0.6 and
// four workers, compaction at the given tombstone ratio.
func newPublic(t *testing.T, sets []silkmoth.Set, compactAt float64) *silkmoth.Engine {
	t.Helper()
	e, err := silkmoth.NewEngine(sets, silkmoth.Config{
		Similarity: silkmoth.Jaccard, Delta: 0.6, Concurrency: 4, Shards: 4,
		CompactionThreshold: compactAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestConcurrentAddSearchBatchDiscover is the -race stress test for the
// engine's one lock: writers grow the collection through Add while readers
// run batches of searches, Discover, and top-k searches against it. Results are not
// asserted against a fixed expectation — the collection is a moving target —
// but every returned index must be in range and every call must complete
// without data races.
func TestConcurrentAddSearchBatchDiscover(t *testing.T) {
	ctx := context.Background()
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 100, Seed: 3})
	base, extra := publicSets(raws[:60]), publicSets(raws[60:])
	e := newPublic(t, base, -1)
	queries := publicSets(datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 8, Seed: 5}))
	batch := batchOf(queries)

	var wg sync.WaitGroup
	errc := make(chan error, 16)

	// Writer: feed the held-out sets in as four uneven batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for len(extra) > 0 {
			n := min(11, len(extra))
			if err := e.Add(extra[:n]); err != nil {
				errc <- err
				return
			}
			extra = extra[n:]
		}
	}()

	// Batch searchers: the engine tokenizes each batch against the shared
	// dictionary under its read lock, while Add interns under the write lock.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				res, err := e.SearchBatchQueriesContext(ctx, batch)
				if err != nil {
					errc <- err
					return
				}
				for _, r := range res {
					for _, m := range r.Matches {
						if m.Index < 0 || m.Index >= len(raws) {
							t.Errorf("batch match index %d out of range (%d sets)", m.Index, len(raws))
							return
						}
					}
				}
			}
		}()
	}

	// Top-k searcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 6; iter++ {
			if _, err := e.SearchTopKContext(ctx, queries[0], 3); err != nil {
				errc <- err
				return
			}
		}
	}()

	// Discoverer: full self-joins interleaved with the adds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 3; iter++ {
			if _, err := e.DiscoverContext(ctx); err != nil {
				errc <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// After the dust settles the engine must hold everything and answer a
	// final consistent discovery.
	if e.Len() != len(raws) {
		t.Fatalf("Len = %d, want %d", e.Len(), len(raws))
	}
	if _, err := e.DiscoverContext(ctx); err != nil {
		t.Fatal(err)
	}
}

// tombstoneLog records which ids have been deleted, with the mutation's
// completion ordered before the record. Readers snapshot it before issuing a
// query: any id deleted before the snapshot must be invisible to a query
// started after it, because mutations hold the engine's write lock.
type tombstoneLog struct {
	mu   sync.Mutex
	dead map[int]bool
}

func (l *tombstoneLog) record(id int) {
	l.mu.Lock()
	l.dead[id] = true
	l.mu.Unlock()
}

func (l *tombstoneLog) snapshot() map[int]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int]bool, len(l.dead))
	for id := range l.dead {
		out[id] = true
	}
	return out
}

// TestConcurrentMutateSearchDiscover is the -race stress test for the
// mutation lifecycle: one writer interleaves Delete, Update, and Add —
// with automatic compaction enabled aggressively enough to fire mid-run —
// while readers hammer batches of searches, top-k, and full discovery. Beyond
// running clean under the race detector, the test asserts the lifecycle's
// core visibility guarantee: a query started after a delete completes
// never returns the deleted set, in any result surface.
func TestConcurrentMutateSearchDiscover(t *testing.T) {
	ctx := context.Background()
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 110, Seed: 9})
	base, extra := publicSets(raws[:80]), publicSets(raws[80:])
	e := newPublic(t, base, 0.15) // fire several compactions mid-run
	log := &tombstoneLog{dead: make(map[int]bool)}

	// Queries reuse deleted sets' content, maximizing the chance a stale
	// posting or cache would resurface a tombstoned id.
	queries := append([]silkmoth.Set{}, base[:6]...)
	queries = append(queries, publicSets(datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 4, Seed: 11}))...)
	batch := batchOf(queries)

	var wg sync.WaitGroup
	errc := make(chan error, 16)

	// Writer: delete every fourth base set, update every fourth (offset
	// by two), and feed the held-out sets in between. slots counts the ids
	// handed out.
	slots := len(base)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(base); i += 2 {
			switch i % 4 {
			case 0:
				if err := e.Delete(i); err != nil {
					errc <- err
					return
				}
				log.record(i)
			case 2:
				if _, err := e.Update(i, silkmoth.Set{Name: base[i].Name + "+v2", Elements: base[(i+3)%len(base)].Elements}); err != nil {
					errc <- err
					return
				}
				slots++
				log.record(i) // the old id is tombstoned by the update
			}
			if i%10 == 0 && len(extra) > 0 {
				n := min(3, len(extra))
				if err := e.Add(extra[:n]); err != nil {
					errc <- err
					return
				}
				slots += n
				extra = extra[n:]
			}
		}
	}()

	// maxSlots bounds every id the run can hand out.
	maxSlots := len(raws) + len(base)
	checkMatches := func(dead map[int]bool, ms []silkmoth.Match, surface string) bool {
		for _, m := range ms {
			if m.Index < 0 || m.Index >= maxSlots {
				t.Errorf("%s: match index %d out of range (%d slots)", surface, m.Index, maxSlots)
				return false
			}
			if dead[m.Index] {
				t.Errorf("%s: returned set %d deleted before the query started", surface, m.Index)
				return false
			}
		}
		return true
	}

	// Batch searchers. Every query tokenizes under the engine's read lock,
	// so compaction's dictionary recycling never lands inside one.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 6; iter++ {
				dead := log.snapshot()
				res, err := e.SearchBatchQueriesContext(ctx, batch)
				if err != nil {
					errc <- err
					return
				}
				for _, r := range res {
					if !checkMatches(dead, r.Matches, "batch") {
						return
					}
				}
			}
		}()
	}

	// Top-k searcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 8; iter++ {
			dead := log.snapshot()
			ms, err := e.SearchTopKContext(ctx, queries[iter%3], 5)
			if err != nil {
				errc <- err
				return
			}
			if !checkMatches(dead, ms, "topk") {
				return
			}
		}
	}()

	// Discoverer: self-joins must neither emit dead references nor dead
	// candidates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 3; iter++ {
			dead := log.snapshot()
			ps, err := e.DiscoverContext(ctx)
			if err != nil {
				errc <- err
				return
			}
			for _, p := range ps {
				if dead[p.R] || dead[p.S] {
					t.Errorf("discover returned pair (%d, %d) involving a set deleted before the query started", p.R, p.S)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Settled state: every delete and update is reflected, compaction ran,
	// and a final discovery over the survivors answers cleanly.
	dead := log.snapshot()
	if got, want := e.Len(), slots-len(dead); got != want {
		t.Fatalf("Len = %d, want %d (slots %d - %d dead)", got, want, slots, len(dead))
	}
	if e.Stats().Compactions == 0 {
		t.Fatal("expected automatic compaction to fire during the run")
	}
	for id := range dead {
		if e.Live(id) {
			t.Fatalf("set %d should be dead", id)
		}
	}
	ps, err := e.DiscoverContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if dead[p.R] || dead[p.S] {
			t.Fatalf("final discovery emitted deleted set in pair (%d, %d)", p.R, p.S)
		}
	}
}

// TestLateHelpersTouchNothing pins the rule that a helper claims a chunk
// before it touches engine state. Every helper is held until the caller has
// returned (core.HoldHelpersForTest), so the caller runs every chunk of its
// split pass itself; the helpers are then let go while AppendSets, Delete
// and Compact rewrite the engine, and must claim nothing and — under -race —
// read nothing of it.
func TestLateHelpersTouchNothing(t *testing.T) {
	defer core.ForceSplitForTest()()
	ctx := context.Background()
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 60, Seed: 3})
	coll := wordColl(raws[:50])
	serial, err := core.NewEngine(coll, jaccardOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.SearchContext(ctx, &coll.Sets[0])
	if err != nil {
		t.Fatal(err)
	}
	e := newAt(t, coll, 4, jaccardOpts(1))
	release := core.HoldHelpersForTest()
	got, err := e.search(ctx, &coll.Sets[0])
	if err != nil {
		t.Fatal(err)
	}
	claimed := make(chan int64)
	go func() { claimed <- release() }()
	e.add(raws[50:])
	if err := e.Delete(1); err != nil {
		t.Fatal(err)
	}
	e.Compact()
	if n := <-claimed; n != 0 {
		t.Fatalf("helpers woken after the caller returned claimed %d chunks", n)
	}
	requireSameMatches(t, "held helpers", got, want)
	if st := e.Stats(); st.SplitPasses != 1 || st.HelperChunks != 0 {
		t.Fatalf("want one split pass whose caller ran every chunk, got %+v", st)
	}
}
