package silkmoth

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"silkmoth/internal/dataset"
	"silkmoth/internal/wal"
	"silkmoth/internal/wal/failfs"
)

// goldenDir is a data dir written by the commit before the snapshot became
// the only persisted form (PR 12's build): a compressed engine over five
// sets, set 2 deleted, Snapshot — so snap-00000002.snap carries a tombstone
// and the index — then Add("branches") and Delete(3) logged to
// wal-00000002.log. goldenMatches is what that build answered to
// goldenQuery just before Close.
const goldenDir = "testdata/golden-datadir"

var (
	goldenCfg   = Config{Similarity: Jaccard, Delta: 0.4, CompressedPostings: true}
	goldenQuery = Set{Name: "q", Elements: []string{"77 Mass Ave Boston MA", "State St Chicago IL"}}

	goldenMatches = []Match{
		{Index: 5, Name: "branches", Relatedness: 0.6666666666666667, MatchingScore: 1.6},
		{Index: 0, Name: "addresses", Relatedness: 0.6666666666666666, MatchingScore: 2},
		{Index: 1, Name: "locations", Relatedness: 0.6666666666666666, MatchingScore: 2},
	}
)

// copyGolden copies the named golden files of src into a fresh directory,
// so the checked-in bytes are never opened for writing.
func copyGolden(t *testing.T, src string, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// newestSnapshot returns the bytes of the highest-numbered snapshot in dir.
func newestSnapshot(t *testing.T, dir string) []byte {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots in %s = %v, %v", dir, snaps, err)
	}
	data, err := os.ReadFile(snaps[len(snaps)-1]) // Glob sorts; names are zero-padded
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenDataDir is the cross-commit compatibility check: a data dir
// written by the previous build opens, replays, answers identically, and —
// with no version fork left to absorb drift — its unmutated image
// re-snapshots byte for byte.
func TestGoldenDataDir(t *testing.T) {
	cfg := goldenCfg
	cfg.DataDir = copyGolden(t, goldenDir, "snap-00000002.snap", "wal-00000002.log")
	eng, err := NewEngine(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if st := eng.Stats(); !st.RecoveredSnapshot || st.WALReplayed != 2 || st.WALTornTail {
		t.Fatalf("stats %+v, want the snapshot plus two replayed records", st)
	}
	if eng.Live(2) || eng.Live(3) || eng.Len() != 4 {
		t.Fatalf("live sets: 2 %v, 3 %v, Len %d; want both deleted and 4 left", eng.Live(2), eng.Live(3), eng.Len())
	}
	got, err := eng.SearchContext(context.Background(), goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenMatches) {
		t.Fatalf("search = %+v, the writing build answered %+v", got, goldenMatches)
	}
	requireFreshBuildSurface(t, "golden", eng, liveRaws(eng), cfg)

	// The snapshot alone (its log missing is the rename-to-create crash
	// window), re-snapshotted and re-saved unmutated.
	cfg.DataDir = copyGolden(t, goldenDir, "snap-00000002.snap")
	bare, err := NewEngine(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if err := bare.Snapshot(); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(goldenDir, "snap-00000002.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if again := newestSnapshot(t, cfg.DataDir); !bytes.Equal(again, golden) {
		t.Fatalf("re-snapshot of the unmutated golden image differs: %d bytes vs %d", len(again), len(golden))
	}

	// A snapshot file is also what NewEngineFromSaved reads.
	saved, err := NewEngineFromSaved(bytes.NewReader(golden), goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saved.SaveCollection(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("SaveCollection of the loaded golden image differs from it")
	}
}

// goldenQGramDir is an edit-similarity data dir: q-grams and q-chunks,
// which the Jaccard golden dir never exercises. The build before q-chunks
// moved from each element into a per-set run wrote it: a heap-postings Eds
// engine (δ 0.8, so q = 3) over six sets, set 2 deleted, Snapshot — so
// snap-00000002.snap carries a tombstone and the index — then
// Add("branches") and Delete(3) logged to wal-00000002.log.
// goldenQGramReplayed is the snapshot that build wrote after reopening
// the dir and replaying the log. The answers are what that build gave
// just before Close.
const (
	goldenQGramDir      = "testdata/golden-qgram-datadir"
	goldenQGramReplayed = "testdata/golden-qgram-replayed.snap"
)

var (
	goldenQGramCfg     = Config{Similarity: Eds, Delta: 0.8}
	goldenQGramQueries = []Set{
		{Name: "q1", Elements: []string{"Boston", "Zürich", "San Francisco", "Chicag"}},
		{Name: "q2", Elements: []string{"Hamburg", "Chicagoo", "Zürich", "Bostn"}},
	}
	goldenQGramMatches = [][]Match{
		{{Index: 0, Name: "cities", Relatedness: 0.9310344827586208, MatchingScore: 3.857142857142857}},
		{{Index: 5, Name: "hubs", Relatedness: 0.8640776699029128, MatchingScore: 3.7083333333333335}},
	}
	goldenQGramPairs = []Pair{
		{R: 0, S: 1, RName: "cities", SName: "towns", Relatedness: 0.8204213938411669, MatchingScore: 3.6054131054131053},
		{R: 5, S: 6, RName: "hubs", SName: "branches", Relatedness: 0.8563535911602211, MatchingScore: 3.6904761904761907},
	}
)

// TestGoldenQGramDataDir is TestGoldenDataDir under Eds: the older build's
// q-gram data dir replays to the same answers, and both its own image and
// the image of the replayed engine re-snapshot byte for byte.
func TestGoldenQGramDataDir(t *testing.T) {
	cfg := goldenQGramCfg
	cfg.DataDir = copyGolden(t, goldenQGramDir, "snap-00000002.snap", "wal-00000002.log")
	eng, err := NewEngine(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if st := eng.Stats(); !st.RecoveredSnapshot || st.WALReplayed != 2 || st.WALTornTail {
		t.Fatalf("stats %+v, want the snapshot plus two replayed records", st)
	}
	if eng.Live(2) || eng.Live(3) || eng.Len() != 5 {
		t.Fatalf("live sets: 2 %v, 3 %v, Len %d; want both deleted and 5 left", eng.Live(2), eng.Live(3), eng.Len())
	}
	for i, q := range goldenQGramQueries {
		got, err := eng.SearchContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, goldenQGramMatches[i]) {
			t.Fatalf("search %s = %+v, the writing build answered %+v", q.Name, got, goldenQGramMatches[i])
		}
	}
	if got := mustDiscover(t, eng); !reflect.DeepEqual(got, goldenQGramPairs) {
		t.Fatalf("discover = %+v, the writing build answered %+v", got, goldenQGramPairs)
	}
	requireFreshBuildSurface(t, "golden qgram", eng, liveRaws(eng), cfg)

	// The replayed engine's snapshot is the one the writing build took.
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	replayed, err := os.ReadFile(goldenQGramReplayed)
	if err != nil {
		t.Fatal(err)
	}
	if again := newestSnapshot(t, cfg.DataDir); !bytes.Equal(again, replayed) {
		t.Fatalf("snapshot of the replayed golden dir differs: %d bytes vs %d", len(again), len(replayed))
	}

	// The snapshot alone re-snapshots, and re-saves, unchanged.
	cfg.DataDir = copyGolden(t, goldenQGramDir, "snap-00000002.snap")
	bare, err := NewEngine(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if err := bare.Snapshot(); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(goldenQGramDir, "snap-00000002.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if again := newestSnapshot(t, cfg.DataDir); !bytes.Equal(again, golden) {
		t.Fatalf("re-snapshot of the unmutated golden image differs: %d bytes vs %d", len(again), len(golden))
	}
	saved, err := NewEngineFromSaved(bytes.NewReader(golden), goldenQGramCfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saved.SaveCollection(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("SaveCollection of the loaded golden image differs from it")
	}
}

// savedGrid runs f over the engine shapes whose images differ: heap and
// compressed postings, one shard (the image carries the index) and three
// (it does not).
func savedGrid(t *testing.T, f func(t *testing.T, cfg Config)) {
	for _, compressed := range []bool{false, true} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("compressed=%v/shards=%d", compressed, shards), func(t *testing.T) {
				f(t, Config{Similarity: Jaccard, Delta: 0.5, CompressedPostings: compressed, Shards: shards})
			})
		}
	}
}

// mutateCorpus applies one Add, one Update and one Delete.
func mutateCorpus(t *testing.T, eng *Engine) {
	t.Helper()
	if err := eng.Add([]Set{{Name: "I", Elements: []string{"Mass Ave", "Lake St Boston"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Update(3, Set{Name: "D+v2", Elements: []string{"Lake Shore Dr Chicago", "5th Ave"}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(0); err != nil {
		t.Fatal(err)
	}
}

// SaveCollection and Snapshot write one image: at the same state the
// bytes SaveCollection streams equal the snap-*.snap file.
func TestSaveCollectionEqualsSnapshotFile(t *testing.T) {
	savedGrid(t, func(t *testing.T, cfg Config) {
		cfg.DataDir = t.TempDir()
		eng, err := NewEngine(durableCorpus(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		mutateCorpus(t, eng)
		if err := eng.Snapshot(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.SaveCollection(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), newestSnapshot(t, cfg.DataDir)) {
			t.Fatal("SaveCollection bytes differ from the snapshot file written at the same state")
		}
	})
}

// A mutated engine saved and reloaded keeps its set ids — dead slots load
// as placeholders, exactly as under DataDir — and answers like a fresh
// build over the survivors, whatever shape reloads it.
func TestSaveLoadMutatedEngineKeepsIDs(t *testing.T) {
	savedGrid(t, func(t *testing.T, cfg Config) {
		eng, err := NewEngine(durableCorpus(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		mutateCorpus(t, eng)
		var buf bytes.Buffer
		if err := eng.SaveCollection(&buf); err != nil {
			t.Fatal(err)
		}
		for _, reload := range []Config{cfg, {Similarity: Jaccard, Delta: 0.5, CompressedPostings: !cfg.CompressedPostings, Shards: 4 - cfg.Shards}} {
			label := fmt.Sprintf("reloaded compressed=%v shards=%d", reload.CompressedPostings, reload.Shards)
			loaded, err := NewEngineFromSaved(bytes.NewReader(buf.Bytes()), reload)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireFreshBuildSurface(t, label, loaded, liveRaws(eng), reload)
			want, _ := eng.SearchContext(context.Background(), durableCorpus()[1])
			got, _ := loaded.SearchContext(context.Background(), durableCorpus()[1])
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: search = %+v, saving engine answered %+v (ids included)", label, got, want)
			}
			// The reloaded engine stays mutable in the same id space.
			if err := loaded.Delete(0); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: deleting the dead slot = %v, want ErrNotFound", label, err)
			}
			if err := loaded.Delete(1); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	})
}

// Retired inputs fail loudly and distinctly from corruption, on both entry
// points; a retired snapshot in a data dir is never bootstrapped over.
func TestRetiredFormatsFailLoudly(t *testing.T) {
	cfg := Config{Similarity: Jaccard, Delta: 0.5}
	// The message's wording is pinned next to the decoder
	// (dataset.TestRetiredFormatsRejected); here, that each entry point
	// surfaces it.
	requireRetired := func(label string, err error, names string) {
		t.Helper()
		if !errors.Is(err, dataset.ErrRetiredFormat) || errors.Is(err, dataset.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), names) {
			t.Fatalf("%s: got %v, want the retired-format error naming %q", label, err, names)
		}
	}

	_, err := NewEngineFromSaved(strings.NewReader("SMOTHCOL\x02\x00\x00\x01\x01\x01x"), cfg)
	requireRetired("collection file", err, "SMOTHCOL")

	eng, err := NewEngine(durableCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveCollection(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := buf.Bytes()
	v1[len("SMOTHSNP")] = 1
	_, err = NewEngineFromSaved(bytes.NewReader(v1), cfg)
	requireRetired("v1 image", err, "version 1")

	cfg.DataDir = t.TempDir()
	name := filepath.Join(cfg.DataDir, "snap-00000007.snap")
	if err := os.WriteFile(name, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewEngine(durableCorpus(), cfg)
	requireRetired("v1 snapshot in DataDir", err, "version 1")
	// Every open takes the directory's empty LOCK file; nothing else may
	// appear, and the snapshot must stay.
	if left, _ := filepath.Glob(filepath.Join(cfg.DataDir, "*")); len(left) != 2 || left[0] != filepath.Join(cfg.DataDir, "LOCK") || left[1] != name {
		t.Fatalf("failed open changed the directory: %v", left)
	}
}

// A reader failing under NewEngineFromSaved is an I/O error, not a corrupt
// image.
func TestSavedReaderErrorIsNotCorruption(t *testing.T) {
	boom := errors.New("closed pipe")
	r := io.MultiReader(strings.NewReader("SMOTHSNP\x02"), iotest.ErrReader(boom))
	_, err := NewEngineFromSaved(r, Config{Delta: 0.5})
	if !errors.Is(err, boom) || errors.Is(err, dataset.ErrSnapshotCorrupt) {
		t.Fatalf("got %v, want the reader's error and not corruption", err)
	}
}

// openFailFS fails the next Open of a write-ahead log with a transient
// error — the EMFILE/EIO/EACCES shape, anything but "does not exist".
type openFailFS struct {
	wal.FS
	failures int
}

func (f *openFailFS) Open(name string) (io.ReadCloser, error) {
	if f.failures > 0 && strings.HasPrefix(name, "wal-") {
		f.failures--
		return nil, errors.New("too many open files")
	}
	return f.FS.Open(name)
}

// Only a log that does not exist may replay as empty. If the log is there
// but cannot be opened, recovery must fail: opening on the bare snapshot
// would assign the next append an id from stale state, after records that
// were never replayed.
func TestUnreadableWALFailsRecovery(t *testing.T) {
	cfg := Config{Similarity: Jaccard, Delta: 0.5, DataDir: "failfs://unreadable-wal"}
	disk := failfs.New()
	build := func() (*Engine, error) { return newHeapEngine(durableCorpus(), cfg) }
	eng, err := newDurableEngine(build, cfg, disk)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Add([]Set{{Name: "I", Elements: []string{"Lake St Boston"}}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	flaky := &openFailFS{FS: disk, failures: 1}
	if rec, err := newDurableEngine(build, cfg, flaky); err == nil {
		t.Fatalf("recovery over an unreadable log succeeded with WALReplayed = %d", rec.Stats().WALReplayed)
	}
	// The failure was transient and nothing was damaged: the next open
	// replays the record.
	rec, err := newDurableEngine(build, cfg, flaky)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st := rec.Stats(); st.WALReplayed != 1 {
		t.Fatalf("second open replayed %d records, want 1", st.WALReplayed)
	}
}

// dirBytes reads a data directory as file name → contents.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = data
	}
	return out
}

// TestCompareIgnoresDataDir: Compare takes an engine Config for its
// similarity settings only. Handed one that names a live data directory (a
// durable server passes its own), it must still score r against s — not
// against the collection recovered from the directory — and must leave the
// directory, WAL bytes included, exactly as it was; handed an empty
// directory, it must not bootstrap a snapshot of s there.
func TestCompareIgnoresDataDir(t *testing.T) {
	r := Set{Name: "r", Elements: []string{"elm st austin tx", "oak st denver co"}}
	for _, tc := range []struct {
		name string
		dir  string
	}{
		{"served directory", copyGolden(t, goldenDir, "snap-00000002.snap", "wal-00000002.log")},
		{"empty directory", t.TempDir()},
	} {
		cfg := goldenCfg
		want, err := Compare(r, r, cfg)
		if err != nil || want != 1 {
			t.Fatalf("%s: without DataDir Compare = %v, %v; want 1", tc.name, want, err)
		}
		before := dirBytes(t, tc.dir)
		cfg.DataDir = tc.dir
		got, err := Compare(r, r, cfg)
		if err != nil || got != want {
			t.Errorf("%s: with DataDir Compare = %v, %v; want %v", tc.name, got, err, want)
		}
		if after := dirBytes(t, tc.dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: Compare changed the data directory: %d files, was %d", tc.name, len(after), len(before))
		}
	}
}
