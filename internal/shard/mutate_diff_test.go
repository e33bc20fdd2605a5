package shard

import (
	"context"
	"fmt"
	"testing"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
)

// The mutation metamorphic harness: an engine that Adds then Deletes (and
// Updates) must be indistinguishable from an engine built fresh over only
// the surviving sets — same match sets, bit-identical scores, same
// canonical order — for every metric × similarity combination, on the
// serial core engine and on engines searched at widths N ∈ {1, 2, 7}, both
// before and after compaction. Set indices differ between the two engines (the
// mutated one has tombstoned holes), but live ids keep their relative
// order, so a monotone id map makes the comparison exact. This is the
// delete-then-rebuild equivalence the VDBMS bug literature singles out:
// mutation paths must never change what a query returns.

// mutationPlan derives a deterministic mutation schedule over n original
// sets: every third set is deleted, and every fourth (not already chosen)
// is updated to carry another set's elements under a new name.
type mutationPlan struct {
	deletes []int
	updates []int
}

func planMutations(n int) mutationPlan {
	var p mutationPlan
	for i := 0; i < n; i++ {
		switch {
		case i%3 == 1:
			p.deletes = append(p.deletes, i)
		case i%4 == 2:
			p.updates = append(p.updates, i)
		}
	}
	return p
}

// updatedVersion is the deterministic replacement content for original set
// i: another set's elements under a fresh name, so updates genuinely move
// content around.
func updatedVersion(raws []dataset.RawSet, i int) dataset.RawSet {
	src := raws[(i*7+5)%len(raws)]
	return dataset.RawSet{Name: raws[i].Name + "+v2", Elements: src.Elements}
}

// survivors returns the fresh-build input: original sets that were neither
// deleted nor updated, in id order, followed by the updated versions in
// application order — exactly the live-id order of the mutated engine.
func survivors(raws []dataset.RawSet, p mutationPlan) []dataset.RawSet {
	gone := make(map[int]bool)
	for _, i := range p.deletes {
		gone[i] = true
	}
	for _, i := range p.updates {
		gone[i] = true
	}
	var out []dataset.RawSet
	for i, r := range raws {
		if !gone[i] {
			out = append(out, r)
		}
	}
	for _, i := range p.updates {
		out = append(out, updatedVersion(raws, i))
	}
	return out
}

// liveIDMap returns the mutated engine's live global ids in ascending
// order (position = fresh-engine index) plus the inverse map from global
// id to fresh index.
func liveIDMap(numSlots int, alive func(int) bool) (liveIDs []int, toFresh map[int]int) {
	toFresh = make(map[int]int)
	for g := 0; g < numSlots; g++ {
		if alive(g) {
			toFresh[g] = len(liveIDs)
			liveIDs = append(liveIDs, g)
		}
	}
	return liveIDs, toFresh
}

// mutatedEngine abstracts the serial core engine and the engine at a width
// behind the operations the harness replays and checks.
type mutatedEngine struct {
	name     string
	coll     *dataset.Collection // mutated collection (with holes)
	alive    func(g int) bool
	search   func(ctx context.Context, r *dataset.Set) ([]core.Match, error)
	topk     func(ctx context.Context, r *dataset.Set, k int) ([]core.Match, error)
	discover func(ctx context.Context) ([]core.Pair, error)
	compact  func()
	// checkIndex is the element-directory self-check of the engine's index.
	checkIndex func() error
}

// applyPlan builds an engine at width n over the full corpus and applies
// the plan: an update appends the new version and tombstones the old one,
// as the public engine's Update does.
func applyPlan(t *testing.T, raws []dataset.RawSet, p mutationPlan, n int, sim core.SimKind, delta, alpha float64, opts core.Options) atWidth {
	t.Helper()
	e := newAt(t, buildColl(raws, sim, delta, alpha), n, opts)
	for _, i := range p.updates {
		e.add([]dataset.RawSet{updatedVersion(raws, i)})
		if err := e.Delete(i); err != nil {
			t.Fatalf("update-delete %d: %v", i, err)
		}
	}
	for _, i := range p.deletes {
		if err := e.Delete(i); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	return e
}

// buildMutatedSerial applies the plan to a serial core engine, whose top k
// is its full answer truncated.
func buildMutatedSerial(t *testing.T, raws []dataset.RawSet, p mutationPlan, sim core.SimKind, delta, alpha float64, opts core.Options) *mutatedEngine {
	t.Helper()
	e := applyPlan(t, raws, p, 1, sim, delta, alpha, opts)
	return &mutatedEngine{
		name:   "serial",
		coll:   e.Collection(),
		alive:  e.Alive,
		search: e.SearchContext,
		topk: func(ctx context.Context, r *dataset.Set, k int) ([]core.Match, error) {
			ms, err := e.SearchContext(ctx, r)
			if len(ms) > k {
				ms = ms[:k]
			}
			return ms, err
		},
		discover:   e.discover,
		compact:    e.Compact,
		checkIndex: e.Index().CheckDirectory,
	}
}

// buildMutatedSharded applies the plan to an engine searched at width n.
func buildMutatedSharded(t *testing.T, raws []dataset.RawSet, p mutationPlan, n int, sim core.SimKind, delta, alpha float64, opts core.Options) *mutatedEngine {
	t.Helper()
	e := applyPlan(t, raws, p, n, sim, delta, alpha, opts)
	return &mutatedEngine{
		name:       fmt.Sprintf("N=%d", n),
		coll:       e.Collection(),
		alive:      e.Alive,
		search:     e.search,
		topk:       e.topK,
		discover:   e.discover,
		compact:    e.Compact,
		checkIndex: e.Index().CheckDirectory,
	}
}

// checkMutatedAgainstFresh compares one mutated engine's full query
// surface against the fresh reference results under the monotone id map.
func checkMutatedAgainstFresh(t *testing.T, stage string, m *mutatedEngine, fresh *dataset.Collection, wantMatches [][]core.Match, wantPairs []core.Pair) {
	t.Helper()
	ctx := context.Background()
	// Derived index state first: a directory that drifted from the
	// collection under Add/Update/Delete/Compact is named here, not as a
	// wrong score further down.
	if err := m.checkIndex(); err != nil {
		t.Fatalf("%s/%s: %v", m.name, stage, err)
	}
	liveIDs, toFresh := liveIDMap(len(m.coll.Sets), m.alive)
	if len(liveIDs) != len(fresh.Sets) {
		t.Fatalf("%s/%s: %d live sets, fresh has %d", m.name, stage, len(liveIDs), len(fresh.Sets))
	}

	// Discovery: pairs map elementwise under the monotone id map.
	gotPairs, err := m.discover(ctx)
	if err != nil {
		t.Fatalf("%s/%s: discover: %v", m.name, stage, err)
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("%s/%s: %d pairs, fresh found %d", m.name, stage, len(gotPairs), len(wantPairs))
	}
	for i, got := range gotPairs {
		mapped := core.Pair{R: toFresh[got.R], S: toFresh[got.S], Relatedness: got.Relatedness, Score: got.Score}
		if mapped != wantPairs[i] { // exact: mapped indices AND float scores
			t.Fatalf("%s/%s: pair %d = %+v (mapped %+v), fresh %+v", m.name, stage, i, got, mapped, wantPairs[i])
		}
	}

	// Per-reference search and top-k prefixes, one reference per live set.
	for fi, g := range liveIDs {
		got, err := m.search(ctx, &m.coll.Sets[g])
		if err != nil {
			t.Fatalf("%s/%s: search %d: %v", m.name, stage, g, err)
		}
		want := wantMatches[fi]
		if len(got) != len(want) {
			t.Fatalf("%s/%s: ref %d: %d matches, fresh found %d", m.name, stage, g, len(got), len(want))
		}
		for i, gm := range got {
			mapped := core.Match{Set: toFresh[gm.Set], Relatedness: gm.Relatedness, Score: gm.Score}
			if mapped != want[i] {
				t.Fatalf("%s/%s: ref %d match %d = %+v (mapped %+v), fresh %+v", m.name, stage, g, i, gm, mapped, want[i])
			}
		}
		for _, k := range []int{1, 3} {
			gotK, err := m.topk(ctx, &m.coll.Sets[g], k)
			if err != nil {
				t.Fatalf("%s/%s: topk %d: %v", m.name, stage, g, err)
			}
			wantK := want
			if len(wantK) > k {
				wantK = wantK[:k]
			}
			if len(gotK) != len(wantK) {
				t.Fatalf("%s/%s: ref %d top-%d: %d matches, want %d", m.name, stage, g, k, len(gotK), len(wantK))
			}
			for i, gm := range gotK {
				mapped := core.Match{Set: toFresh[gm.Set], Relatedness: gm.Relatedness, Score: gm.Score}
				if mapped != wantK[i] {
					t.Fatalf("%s/%s: ref %d top-%d item %d = %+v (mapped %+v), want %+v", m.name, stage, g, k, i, gm, mapped, wantK[i])
				}
			}
		}
	}
}

// runMutationDifferential is the harness body for one metric × similarity
// case.
func runMutationDifferential(t *testing.T, metric core.Metric, sim core.SimKind, delta, alpha float64) {
	t.Helper()
	raws := corpusRaws(sim, 77)
	p := planMutations(len(raws))
	opts := core.DefaultOptions(metric, sim, delta, alpha)
	opts.Concurrency = 3
	// Automatic compaction stays off (DefaultOptions) so the harness can
	// pin the tombstoned state first, then compact explicitly.

	// Fresh reference: a serial engine built from only the surviving sets.
	surv := survivors(raws, p)
	fresh := buildColl(surv, sim, delta, alpha)
	ref, err := core.NewEngine(fresh, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs, err := ref.DiscoverQueryContext(context.Background(), fresh, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPairs) == 0 {
		t.Fatal("surviving workload produced no related pairs; tune the corpus or thresholds")
	}
	wantMatches := make([][]core.Match, len(fresh.Sets))
	for fi := range fresh.Sets {
		ms, err := ref.SearchContext(context.Background(), &fresh.Sets[fi])
		if err != nil {
			t.Fatal(err)
		}
		wantMatches[fi] = ms
	}

	engines := []*mutatedEngine{
		buildMutatedSerial(t, raws, p, sim, delta, alpha, opts),
	}
	for _, n := range diffShardCounts {
		engines = append(engines, buildMutatedSharded(t, raws, p, n, sim, delta, alpha, opts))
	}
	for _, m := range engines {
		checkMutatedAgainstFresh(t, "tombstoned", m, fresh, wantMatches, wantPairs)
		m.compact()
		checkMutatedAgainstFresh(t, "compacted", m, fresh, wantMatches, wantPairs)
	}
}

// TestMutationDifferential sweeps the full metric × similarity grid
// through the delete-then-rebuild harness, every wider search split.
func TestMutationDifferential(t *testing.T) {
	t.Cleanup(core.ForceSplitForTest()) // after the parallel subtests
	for _, metric := range []core.Metric{core.SetSimilarity, core.SetContainment} {
		for _, sim := range []core.SimKind{core.Jaccard, core.Eds, core.NEds, core.Dice, core.Cosine} {
			metric, sim := metric, sim
			delta := 0.6
			if sim.TokenMode() == dataset.ModeQGram {
				delta = 0.7 // edit similarities: q = DefaultQ(0.7, 0) = 2
			}
			t.Run(fmt.Sprintf("%s/%s", metric, sim), func(t *testing.T) {
				t.Parallel()
				runMutationDifferential(t, metric, sim, delta, 0)
			})
		}
	}
}
