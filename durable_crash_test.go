package silkmoth

import (
	"fmt"
	"math/rand"
	"testing"

	"silkmoth/internal/wal/failfs"
)

// The crash-injection harness: run a deterministic workload of mutations
// and snapshots over the crash-modeling filesystem, crash it at EVERY
// write/sync point in turn, recover from the post-crash disk image, and
// require the recovered engine to hold exactly the logical state the
// durability contract promises — every acknowledged mutation, possibly
// plus the one mutation the crash interrupted (whose record may have
// reached the disk even though the call returned an error), and nothing
// else. The recovered engine must then answer queries bit-identically to
// a fresh heap-built oracle over the surviving sets.

// crashModel mirrors the engine's logical state: an id-indexed slot table
// where Add and Update append at the end (reproducing the engine's id
// assignment) and Delete and Update tombstone.
type crashModel struct {
	slots []Set
	alive []bool
}

func (m *crashModel) clone() *crashModel {
	return &crashModel{
		slots: append([]Set(nil), m.slots...),
		alive: append([]bool(nil), m.alive...),
	}
}

func (m *crashModel) add(sets []Set) {
	for _, s := range sets {
		m.slots = append(m.slots, s)
		m.alive = append(m.alive, true)
	}
}

func (m *crashModel) del(id int) { m.alive[id] = false }

func (m *crashModel) update(id int, s Set) {
	m.alive[id] = false
	m.add([]Set{s})
}

// live returns the live sets in id order — the order recovered engines,
// fresh rebuilds, and snapshots all agree on.
func (m *crashModel) live() []Set {
	var out []Set
	for i, s := range m.slots {
		if m.alive[i] {
			out = append(out, s)
		}
	}
	return out
}

// crashOp is one workload step. apply is the op's logical effect on the
// model — nil for non-mutating steps (Snapshot).
type crashOp struct {
	name  string
	run   func(e *Engine) error
	apply func(m *crashModel)
}

func opAdd(sets ...Set) crashOp {
	return crashOp{
		name:  fmt.Sprintf("add %d", len(sets)),
		run:   func(e *Engine) error { return e.Add(sets) },
		apply: func(m *crashModel) { m.add(sets) },
	}
}

func opDelete(id int) crashOp {
	return crashOp{
		name:  fmt.Sprintf("delete %d", id),
		run:   func(e *Engine) error { return e.Delete(id) },
		apply: func(m *crashModel) { m.del(id) },
	}
}

func opUpdate(id int, s Set) crashOp {
	return crashOp{
		name:  fmt.Sprintf("update %d", id),
		run:   func(e *Engine) error { _, err := e.Update(id, s); return err },
		apply: func(m *crashModel) { m.update(id, s) },
	}
}

func opSnapshot() crashOp {
	return crashOp{
		name: "snapshot",
		run:  func(e *Engine) error { return e.Snapshot() },
	}
}

func crashBootstrap() []Set {
	return []Set{
		{Name: "A", Elements: []string{"77 Mass Ave", "5th St", "Main St"}},
		{Name: "B", Elements: []string{"77 5th St", "Mass Ave Boston"}},
		{Name: "C", Elements: []string{"Main St Chicago", "5th Ave"}},
		{Name: "D", Elements: []string{"Lake Shore Dr", "Main St"}},
		{Name: "E", Elements: []string{"77 Mass Ave", "Lake Shore Dr"}},
		{Name: "F", Elements: []string{"5th Ave Chicago", "Mass Ave"}},
	}
}

// crashScript is the fixed workload: adds, deletes, updates, and snapshot
// rotations, with ids chosen so every phase touches sets created in every
// earlier phase. Bootstrap ids are 0–5; appends follow deterministically.
func crashScript() []crashOp {
	set := func(name string, elems ...string) Set { return Set{Name: name, Elements: elems} }
	return []crashOp{
		opAdd( // ids 6, 7
			set("G", "77 Mass Ave Boston", "Lake St"),
			set("H", "5th St", "Main St Chicago"),
		),
		opDelete(1),
		opUpdate(3, set("D+v2", "Lake Shore Dr Chicago", "5th Ave")), // id 8
		opSnapshot(),
		opAdd(set("I", "Mass Ave", "Lake St Boston")), // id 9
		opDelete(6),
		opUpdate(0, set("A+v2", "77 Mass Ave", "Main St")), // id 10
		opAdd( // ids 11, 12
			set("J", "5th Ave", "77 5th St"),
			set("K", "Lake Shore Dr", "Main St Boston"),
		),
		opSnapshot(),
		opDelete(9),
		opUpdate(8, set("D+v3", "Lake Shore Dr", "5th Ave Chicago")), // id 13
		opAdd(set("L", "Mass Ave Boston", "Lake St")),                // id 14
	}
}

// runCrashScript builds a durable engine over fsys (bootstrapping from
// boot) and drives script against it, pressing on after the injected
// crash fires (later ops fail, as a real caller would see). It returns
// the model holding every acknowledged mutation, the logical effect of
// the mutation the crash interrupted mid-append (nil if the crash hit a
// non-mutating op or construction), the number of ops that returned
// errors, and the construction error if the engine never came up.
func runCrashScript(fsys *failfs.FS, boot []Set, cfg Config, script []crashOp) (model *crashModel, extra func(*crashModel), opErrs int, buildErr error) {
	model = &crashModel{}
	model.add(boot)
	eng, err := newDurableEngine(func() (*Engine, error) { return newHeapEngine(boot, cfg) }, cfg, fsys)
	if err != nil {
		return model, nil, 0, err
	}
	defer eng.Close()
	for _, op := range script {
		crashedBefore := fsys.Crashed()
		err := op.run(eng)
		if err == nil {
			if op.apply != nil {
				op.apply(model)
			}
			continue
		}
		opErrs++
		// Only the mutation the crash fired inside can have left a durable
		// record without acknowledging: later mutations fail before
		// touching the disk (the log latches broken), and ops that failed
		// their liveness check never logged at all.
		if op.apply != nil && !crashedBefore && fsys.Crashed() && extra == nil {
			extra = op.apply
		}
	}
	return model, extra, opErrs, nil
}

// liveRaws reads the engine's live sets, in id order, back out as raw
// public sets.
func liveRaws(e *Engine) []Set {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []Set
	for i := range e.coll.Sets {
		if !e.eng.Alive(i) {
			continue
		}
		s := &e.coll.Sets[i]
		elems := make([]string, len(s.Elements))
		for j := range s.Elements {
			elems[j] = s.Elements[j].Raw
		}
		out = append(out, Set{Name: s.Name, Elements: elems})
	}
	return out
}

func rawSetsEqual(a, b []Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Elements) != len(b[i].Elements) {
			return false
		}
		for j := range a[i].Elements {
			if a[i].Elements[j] != b[i].Elements[j] {
				return false
			}
		}
	}
	return true
}

func setNames(sets []Set) []string {
	names := make([]string, len(sets))
	for i, s := range sets {
		names[i] = s.Name
	}
	return names
}

// verifyRecovery mounts the post-crash disk, recovers, and checks the two
// halves of the durability contract: the recovered logical state is
// stateAfter(m) or stateAfter(m+1), and the recovered engine's full query
// surface — Discover and a Search per surviving set — is bit-identical to
// a fresh heap-built oracle over the recovered survivors.
func verifyRecovery(t *testing.T, label string, disk *failfs.FS, boot []Set, cfg Config, model *crashModel, extra func(*crashModel)) {
	t.Helper()
	rec, err := newDurableEngine(func() (*Engine, error) { return newHeapEngine(boot, cfg) }, cfg, disk)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer rec.Close()

	got := liveRaws(rec)
	wantA := model.live()
	ok := rawSetsEqual(got, wantA)
	if !ok && extra != nil {
		mb := model.clone()
		extra(mb)
		if rawSetsEqual(got, mb.live()) {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("%s: recovered state %v is neither stateAfter(m) %v nor stateAfter(m+1)",
			label, setNames(got), setNames(wantA))
	}

	requireFreshBuildSurface(t, label, rec, got, cfg)

	// The recovered engine must stay writable: its log is live again.
	if err := rec.Add([]Set{{Name: "post-recovery", Elements: []string{"Lake St"}}}); err != nil {
		t.Fatalf("%s: recovered engine rejects mutations: %v", label, err)
	}
}

// requireFreshBuildSurface is the oracle check: rec, whose live sets are
// got, must answer Discover and a Search per live set exactly like a fresh
// heap build of cfg over those sets. The engine's live ids ascend, and the
// oracle assigns dense ids in the same order, so canonical orderings agree
// pair for pair.
func requireFreshBuildSurface(t *testing.T, label string, rec *Engine, got []Set, cfg Config) {
	t.Helper()
	heapCfg := cfg
	heapCfg.DataDir = ""
	oracle, err := NewEngine(got, heapCfg)
	if err != nil {
		t.Fatalf("%s: oracle build: %v", label, err)
	}
	if rec.Len() != oracle.Len() {
		t.Fatalf("%s: recovered Len = %d, oracle %d", label, rec.Len(), oracle.Len())
	}
	// The index's element directory is derived, never persisted: whatever
	// image and log the engine came back from, it must describe the
	// recovered collection.
	if err := CheckDirectoriesForTest(rec); err != nil {
		t.Fatalf("%s: %v", label, err)
	}

	wantPairs := oracle.Discover()
	gotPairs := rec.Discover()
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("%s: %d discovered pairs, oracle found %d", label, len(gotPairs), len(wantPairs))
	}
	for i := range wantPairs {
		g, w := gotPairs[i], wantPairs[i]
		if g.RName != w.RName || g.SName != w.SName ||
			g.Relatedness != w.Relatedness || g.MatchingScore != w.MatchingScore {
			t.Fatalf("%s: pair %d = %+v, oracle %+v", label, i, g, w)
		}
	}
	for _, q := range got {
		gotMs, err := rec.Search(q)
		if err != nil {
			t.Fatalf("%s: search %q: %v", label, q.Name, err)
		}
		wantMs, err := oracle.Search(q)
		if err != nil {
			t.Fatalf("%s: oracle search %q: %v", label, q.Name, err)
		}
		gk, wk := matchKeys(gotMs), matchKeys(wantMs)
		if len(gk) != len(wk) {
			t.Fatalf("%s: query %q: %d matches, oracle %d", label, q.Name, len(gk), len(wk))
		}
		for i := range wk {
			if gk[i] != wk[i] {
				t.Fatalf("%s: query %q match %d = %+v, oracle %+v", label, q.Name, i, gk[i], wk[i])
			}
		}
	}
}

// TestCrashRecoveryEveryWriteSyncPoint enumerates every filesystem
// write/sync point the workload performs — snapshot section writes, file
// syncs, renames, directory syncs, log appends — and crashes at each one.
func TestCrashRecoveryEveryWriteSyncPoint(t *testing.T) {
	boot := crashBootstrap()
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{
				Metric:     SetSimilarity,
				Similarity: Jaccard,
				Delta:      0.5,
				Shards:     shards,
				DataDir:    "failfs://crash-harness", // labels errors; the FS is injected directly
			}
			script := crashScript()

			// Uninjected dry run: learn the op count and prove the model
			// mirrors the engine exactly when nothing goes wrong.
			calm := failfs.New()
			model, extra, opErrs, err := runCrashScript(calm, boot, cfg, script)
			if err != nil {
				t.Fatalf("uninjected build: %v", err)
			}
			if opErrs != 0 || extra != nil {
				t.Fatalf("uninjected run hit %d op errors", opErrs)
			}
			verifyRecovery(t, "uninjected", calm.Disk(), boot, cfg, model, nil)
			totalOps := calm.Ops()
			if totalOps < 30 {
				t.Fatalf("workload performed only %d fs ops — harness lost its coverage", totalOps)
			}

			for k := 0; k < totalOps; k++ {
				fs := failfs.New()
				fs.FailAt(k)
				model, extra, _, err := runCrashScript(fs, boot, cfg, script)
				label := fmt.Sprintf("k=%d", k)
				if err == nil && !fs.Crashed() {
					t.Fatalf("%s: crash never fired (totalOps=%d)", label, totalOps)
				}
				verifyRecovery(t, label, fs.Disk(), boot, cfg, model, extra)
			}
		})
	}
}

// TestMetamorphicCrashRecovery is the randomized companion: random
// mutation interleavings with snapshots at random prefixes, crashed at a
// random write/sync point, must recover to a state explainable by the
// acknowledged mutations — and answer queries exactly like a fresh
// rebuild over the survivors.
func TestMetamorphicCrashRecovery(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	rng := rand.New(rand.NewSource(0x51f7))
	for trial := 0; trial < trials; trial++ {
		shards := 0
		if trial%3 == 2 {
			shards = 1 + rng.Intn(3)
		}
		cfg := Config{
			Metric:     SetSimilarity,
			Similarity: Jaccard,
			Delta:      0.5,
			Shards:     shards,
			DataDir:    "failfs://metamorphic",
		}
		boot := randomCorpus(rng, 4+rng.Intn(4))

		// Generate a random script against a planning model, so deletes
		// and updates always target ids that are live at that point.
		plan := &crashModel{}
		plan.add(boot)
		nextName := 0
		fresh := func() Set {
			nextName++
			s := randomCorpus(rng, 1)[0]
			s.Name = fmt.Sprintf("M%d", nextName)
			return s
		}
		liveIDs := func() []int {
			var ids []int
			for i, a := range plan.alive {
				if a {
					ids = append(ids, i)
				}
			}
			return ids
		}
		var script []crashOp
		nOps := 6 + rng.Intn(10)
		for len(script) < nOps {
			switch ids := liveIDs(); {
			case rng.Intn(5) == 0:
				script = append(script, opSnapshot())
			case rng.Intn(3) == 0 && len(ids) > 2:
				id := ids[rng.Intn(len(ids))]
				script = append(script, opDelete(id))
				plan.del(id)
			case rng.Intn(3) == 0 && len(ids) > 0:
				id := ids[rng.Intn(len(ids))]
				s := fresh()
				script = append(script, opUpdate(id, s))
				plan.update(id, s)
			default:
				sets := []Set{fresh()}
				if rng.Intn(2) == 0 {
					sets = append(sets, fresh())
				}
				script = append(script, opAdd(sets...))
				plan.add(sets)
			}
		}

		calm := failfs.New()
		if _, _, opErrs, err := runCrashScript(calm, boot, cfg, script); err != nil || opErrs != 0 {
			t.Fatalf("trial %d: uninjected run: err=%v opErrs=%d", trial, err, opErrs)
		}
		totalOps := calm.Ops()

		// A handful of random crash points per script keeps the randomized
		// search wide; the exhaustive sweep lives in the harness above.
		for probe := 0; probe < 4; probe++ {
			k := rng.Intn(totalOps)
			fs := failfs.New()
			fs.FailAt(k)
			model, extra, _, err := runCrashScript(fs, boot, cfg, script)
			label := fmt.Sprintf("trial=%d k=%d shards=%d", trial, k, shards)
			if err == nil && !fs.Crashed() {
				t.Fatalf("%s: crash never fired (totalOps=%d)", label, totalOps)
			}
			verifyRecovery(t, label, fs.Disk(), boot, cfg, model, extra)
		}
	}
}
