package silkmoth

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"silkmoth/internal/raceflag"
	"silkmoth/internal/wal"
)

func durableCorpus() []Set {
	sets := crashBootstrap()
	return append(sets,
		Set{Name: "G", Elements: []string{"77 Mass Ave Boston", "Lake St"}},
		Set{Name: "H", Elements: []string{"5th St", "Main St Chicago"}},
	)
}

// compareEngineSurfaces requires got to answer every query bit-identically
// to want: same discovery pairs (ids included — both engines share one id
// space) and same matches with same scores for a Search per live set.
// With checkFunnel it additionally requires identical per-query explain
// funnels (candidate, filter, and verification counts) — a snapshot-loaded
// engine must probe an identical index, not merely reach the same answers.
// Funnel equality only holds against a compacted writer: snapshots persist
// compacted images, while a tombstoned writer still probes (and
// check-prunes) its dead sets' postings until it compacts.
func compareEngineSurfaces(t *testing.T, stage string, want, got *Engine, checkFunnel bool) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", stage, got.Len(), want.Len())
	}
	for _, e := range []*Engine{want, got} {
		if err := CheckDirectoriesForTest(e); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	wantPairs := want.Discover()
	gotPairs := got.Discover()
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("%s: %d pairs, want %d", stage, len(gotPairs), len(wantPairs))
	}
	for i := range wantPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", stage, i, gotPairs[i], wantPairs[i])
		}
	}
	for _, q := range liveRaws(want) {
		var w, g Explain
		wantMs, err := want.Search(q, WithExplain(&w))
		if err != nil {
			t.Fatalf("%s: explain %q: %v", stage, q.Name, err)
		}
		gotMs, err := got.Search(q, WithExplain(&g))
		if err != nil {
			t.Fatalf("%s: loaded explain %q: %v", stage, q.Name, err)
		}
		if len(gotMs) != len(wantMs) {
			t.Fatalf("%s: query %q: %d matches, want %d", stage, q.Name, len(gotMs), len(wantMs))
		}
		for i := range wantMs {
			if gotMs[i] != wantMs[i] {
				t.Fatalf("%s: query %q match %d = %+v, want %+v",
					stage, q.Name, i, gotMs[i], wantMs[i])
			}
		}
		if !checkFunnel {
			continue
		}
		if g.Scheme != w.Scheme || g.Passes != w.Passes || g.FullScans != w.FullScans ||
			g.SigTokens != w.SigTokens || g.Candidates != w.Candidates ||
			g.AfterCheck != w.AfterCheck || g.CheckPruned != w.CheckPruned ||
			g.AfterNN != w.AfterNN || g.NNPruned != w.NNPruned || g.Verified != w.Verified {
			t.Fatalf("%s: query %q funnel diverged:\nloaded %+v\nwriter %+v", stage, q.Name, g, w)
		}
	}
}

// TestSnapshotDifferentialGrid pins snapshot fidelity across the full
// configuration grid: for every metric × similarity × α × shard count, an
// engine reloaded from its snapshot must be indistinguishable from the
// engine that wrote it — identical matches, scores, orderings, and explain
// funnels — both with tombstones standing and after compaction.
func TestSnapshotDifferentialGrid(t *testing.T) {
	corpus := durableCorpus()
	type simCase struct {
		sim    Similarity
		alphas []float64
	}
	sims := []simCase{
		{Jaccard, []float64{0, 0.4}},
		{Dice, []float64{0}},
		{Cosine, []float64{0}},
		{Eds, []float64{0, 0.4}},
		{NEds, []float64{0.4}},
	}
	for _, metric := range []Metric{SetSimilarity, SetContainment} {
		for _, sc := range sims {
			for _, alpha := range sc.alphas {
				for _, shards := range []int{1, 2, 7} {
					t.Run(fmt.Sprintf("%v/%v/alpha=%v/shards=%d", metric, sc.sim, alpha, shards), func(t *testing.T) {
						cfg := Config{
							Metric:              metric,
							Similarity:          sc.sim,
							Delta:               0.5,
							Alpha:               alpha,
							Shards:              shards,
							DataDir:             t.TempDir(),
							CompactionThreshold: -1, // explicit Compact below
						}
						eng, err := NewEngine(corpus, cfg)
						if err != nil {
							t.Fatal(err)
						}
						defer eng.Close()
						// Tombstones and appended sets, so the snapshot
						// exercises dead placeholders and replay-safe ids.
						if err := eng.Delete(1); err != nil {
							t.Fatal(err)
						}
						if _, err := eng.Update(3, Set{Name: "D+v2", Elements: []string{"Lake Shore Dr Chicago", "5th Ave"}}); err != nil {
							t.Fatal(err)
						}
						if err := eng.Add([]Set{{Name: "I", Elements: []string{"Mass Ave", "Lake St Boston"}}}); err != nil {
							t.Fatal(err)
						}

						reloadAndCompare := func(stage string, checkFunnel bool) {
							t.Helper()
							if err := eng.Snapshot(); err != nil {
								t.Fatalf("%s: snapshot: %v", stage, err)
							}
							loaded, err := NewEngine(nil, cfg)
							if err != nil {
								t.Fatalf("%s: reload: %v", stage, err)
							}
							defer loaded.Close()
							if st := loaded.Stats(); !st.RecoveredSnapshot || st.WALReplayed != 0 {
								t.Fatalf("%s: reload stats %+v, want a clean snapshot recovery", stage, st)
							}
							compareEngineSurfaces(t, stage, eng, loaded, checkFunnel)
						}
						reloadAndCompare("tombstoned", false)
						eng.Compact()
						reloadAndCompare("compacted", true)
					})
				}
			}
		}
	}
}

// TestReshardAcrossReopen changes Config.Shards between runs of one data
// directory: written by one shard, reopened by three and mutated,
// snapshotted there, and reopened by one shard again. Every snapshot
// persists the one index, which serves every shard count: a compressed
// reopen maps it instead of rebuilding, at three shards as at one. At every
// step the engine must answer like a fresh volatile build over the
// survivors.
func TestReshardAcrossReopen(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		t.Run(fmt.Sprintf("compressed=%v", compressed), func(t *testing.T) {
			cfg := Config{
				Similarity:         Jaccard,
				Delta:              0.5,
				DataDir:            t.TempDir(),
				CompressedPostings: compressed,
			}
			open := func(stage string, shards int, boot []Set) *Engine {
				t.Helper()
				cfg.Shards = shards
				eng, err := NewEngine(boot, cfg)
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if got := eng.Shards(); got != shards {
					t.Fatalf("%s: Shards() = %d, want %d", stage, got, shards)
				}
				requireFreshBuildSurface(t, stage, eng, liveRaws(eng), cfg)
				return eng
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}

			one := open("written at 1", 1, durableCorpus())
			must(one.Delete(1)) // replayed by the resharded open below
			must(one.Close())

			three := open("reopened at 3", 3, nil)
			if st := three.Stats(); !st.RecoveredSnapshot || st.WALReplayed != 1 {
				t.Fatalf("reopen at 3: stats %+v, want the snapshot plus one replayed record", st)
			}
			if compressed && runtime.GOOS == "linux" && !three.Stats().SnapshotMapped {
				t.Error("the compressed reopen at 3 did not map the persisted postings")
			}
			must(three.Add([]Set{{Name: "I", Elements: []string{"Mass Ave", "Lake St Boston"}}}))
			_, err := three.Update(3, Set{Name: "D+v2", Elements: []string{"Lake Shore Dr Chicago", "5th Ave"}})
			must(err)
			must(three.Delete(0))
			requireFreshBuildSurface(t, "mutated at 3", three, liveRaws(three), cfg)
			must(three.Snapshot())
			must(three.Add([]Set{{Name: "J", Elements: []string{"Main St Chicago", "5th St"}}}))
			want := liveRaws(three)
			must(three.Close())

			back := open("reopened at 1", 1, nil)
			defer back.Close()
			if got := liveRaws(back); !rawSetsEqual(got, want) {
				t.Fatalf("reopened at 1 with %v, want %v", setNames(got), setNames(want))
			}
			// A second open at one shard imports its own snapshot's postings.
			must(back.Snapshot())
			must(back.Close())
			again := open("reopened at 1 from its own snapshot", 1, nil)
			if compressed && runtime.GOOS == "linux" && !again.Stats().SnapshotMapped {
				t.Error("one shard's compressed reopen did not map its persisted postings")
			}
			must(again.Close())
		})
	}
}

// TestFailedRecoveryUnmapsSnapshot: a compressed durable engine reopens
// over its memory-mapped snapshot, so every exit from recovery owes an
// unmap — Close, and a WAL replay that fails after the mapped load. The
// log's middle record is overwritten with a frame that checksums (so it is
// not a torn tail) but decodes to no operation.
func TestFailedRecoveryUnmapsSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Similarity: Jaccard, Delta: 0.5, DataDir: dir, CompressedPostings: true}
	snapshotMapped := func() bool {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Contains(maps, []byte(filepath.Join(dir, "snap-")))
	}

	eng, err := NewEngine(durableCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"I", "J", "K"} {
		if err := eng.Add([]Set{{Name: name, Elements: []string{"Lake St Boston"}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err = NewEngine(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && !(eng.Stats().SnapshotMapped && snapshotMapped()) {
		t.Fatal("compressed reopen did not map its snapshot")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && snapshotMapped() {
		t.Fatal("snapshot still mapped after Close")
	}

	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("logs = %v, %v", logs, err)
	}
	buf, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := wal.DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	frame := buf[first:] // [len u32][crc32 u32][payload]
	payload := frame[8 : 8+binary.LittleEndian.Uint32(frame[0:4])]
	for i := range payload {
		payload[i] = 0xFF
	}
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(logs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if eng, err := NewEngine(nil, cfg); err == nil {
		eng.Close()
		t.Fatal("reopen over a corrupted mid-log record succeeded")
	}
	if runtime.GOOS == "linux" && snapshotMapped() {
		t.Fatal("failed recovery left the snapshot mapped")
	}
}

// TestSnapshotWhileMutatingRace drives Snapshot concurrently with
// mutations, queries, and stats reads. Run under -race it proves the
// rotation path shares no unsynchronized state with the mutation path;
// afterwards a reload must see every acknowledged mutation.
func TestSnapshotWhileMutatingRace(t *testing.T) {
	cfg := Config{
		Metric:     SetSimilarity,
		Similarity: Jaccard,
		Delta:      0.5,
		DataDir:    t.TempDir(),
	}
	eng, err := NewEngine(durableCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	const mutations = 40
	var wg sync.WaitGroup
	done := make(chan struct{})
	expectedLive := len(durableCorpus())
	wg.Add(3)
	go func() { // the only mutator, so id assignment stays deterministic
		defer wg.Done()
		defer close(done)
		next := len(durableCorpus()) // the id the next append receives
		for i := 0; i < mutations; i++ {
			s := Set{Name: fmt.Sprintf("mut%d", i), Elements: []string{"77 Mass Ave", fmt.Sprintf("Pier %d", i)}}
			if err := eng.Add([]Set{s}); err != nil {
				t.Errorf("add %d: %v", i, err)
				return
			}
			id := next
			next++
			expectedLive++
			if i%3 == 0 {
				nid, err := eng.Update(id, Set{Name: s.Name + "+v2", Elements: []string{"Main St", fmt.Sprintf("Pier %d", i)}})
				if err != nil {
					t.Errorf("update %d: %v", id, err)
					return
				}
				if nid != next {
					t.Errorf("update %d assigned id %d, want %d", id, nid, next)
					return
				}
				id = nid
				next++
			}
			if i%4 == 0 {
				if err := eng.Delete(id); err != nil {
					t.Errorf("delete %d: %v", id, err)
					return
				}
				expectedLive--
			}
		}
	}()
	go func() { // snapshotter
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := eng.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	go func() { // readers
		defer wg.Done()
		ref := Set{Name: "q", Elements: []string{"77 Mass Ave", "Main St"}}
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := eng.Search(ref); err != nil {
				t.Errorf("search: %v", err)
				return
			}
			_ = eng.Stats()
			_ = eng.Len()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := NewEngine(nil, cfg)
	if err != nil {
		t.Fatalf("reload after concurrent snapshots: %v", err)
	}
	defer loaded.Close()
	if loaded.Len() != expectedLive {
		t.Fatalf("reloaded Len = %d, want %d", loaded.Len(), expectedLive)
	}
}

// TestSnapshotLoadAllocationBudget pins the property that gives snapshots
// their purpose: loading one performs no re-tokenization and (unsharded)
// no index rebuild. Decoding the image allocates the same collection and
// posting structures a build does, so load sits measurably below build —
// but if tokenization or index construction creeps into recovery, its cost
// stacks on top of the decode cost and load overtakes build, tripping the
// budget.
func TestSnapshotLoadAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	sets := allocCorpus(300)
	heapCfg := Config{Similarity: Jaccard, Delta: 0.5}
	cfg := heapCfg
	cfg.DataDir = t.TempDir()
	eng, err := NewEngine(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	buildAllocs := testing.AllocsPerRun(5, func() {
		if _, err := newHeapEngine(sets, heapCfg); err != nil {
			t.Fatal(err)
		}
	})
	loadAllocs := testing.AllocsPerRun(5, func() {
		loaded, err := NewEngine(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !loaded.Stats().RecoveredSnapshot {
			t.Fatal("load fell back to a heap build")
		}
		loaded.Close()
	})
	t.Logf("snapshot load: %.0f allocs, heap build: %.0f", loadAllocs, buildAllocs)
	if loadAllocs > buildAllocs*9/10 {
		t.Errorf("snapshot load allocates %.0f objects vs %.0f for a full build — recovery is re-doing build work",
			loadAllocs, buildAllocs)
	}
}
