package filter

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/raceflag"
	"silkmoth/internal/signature"
	"silkmoth/internal/tokens"
)

// retainSetup builds a collection where one "hot" set and many "cold" sets
// are reachable through disjoint tokens, plus a reference whose broad
// signature touches every set and whose narrow signature touches only the
// hot one.
func retainSetup(t *testing.T, cold int) (r *dataset.Set, broad, narrow *signature.Signature, ix *index.Inverted) {
	t.Helper()
	dict := tokens.NewDictionary()
	raws := []dataset.RawSet{{Name: "hot", Elements: []string{"hot"}}}
	for i := 0; i < cold; i++ {
		raws = append(raws, dataset.RawSet{
			Name:     fmt.Sprintf("cold%d", i),
			Elements: []string{fmt.Sprintf("tok%d", i)},
		})
	}
	coll := dataset.BuildWord(dict, raws)
	ix = index.Build(coll)

	var allTokens []string
	for i := 0; i < cold; i++ {
		allTokens = append(allTokens, fmt.Sprintf("tok%d", i))
	}
	refColl := dataset.BuildQuery(dict, []dataset.RawSet{{
		Name:     "ref",
		Elements: []string{"hot", strings.Join(allTokens, " ")},
	}}, coll.Mode, coll.Q)
	r = &refColl.Sets[0]

	id := func(name string) tokens.ID {
		v, ok := dict.Lookup(name)
		if !ok {
			t.Fatalf("token %q missing", name)
		}
		return v
	}
	hotSig := signature.ElemSig{Tokens: []tokens.ID{id("hot")}}
	coldIDs := make([]tokens.ID, 0, cold)
	for i := 0; i < cold; i++ {
		coldIDs = append(coldIDs, id(fmt.Sprintf("tok%d", i)))
	}
	broad = &signature.Signature{
		Elements: []signature.ElemSig{hotSig, {Tokens: tokens.SortUnique(coldIDs)}},
		Valid:    true,
	}
	narrow = &signature.Signature{
		Elements: []signature.ElemSig{hotSig, {}},
		Valid:    true,
	}
	return r, broad, narrow, ix
}

// arenaBytes is what the collector's arenas hold, whatever the last pass
// used of it: the memory Collector.retain governs (the per-set state is
// O(collection) by design and not part of it).
func arenaBytes(cl *Collector) int {
	return cap(cl.sets)*4 + cap(cl.npass)*4 + cap(cl.best)*8 + cap(cl.passed) +
		cap(cl.cands)*int(unsafe.Sizeof(Candidate{})) + cap(cl.out)*int(unsafe.Sizeof(&Candidate{}))
}

// sameCandidates holds two Collect results to each other: the same sets in
// the same order, BestSim bit for bit, Passed and NumPassed.
func sameCandidates(t *testing.T, label string, got, want []*Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Set != w.Set || g.NumPassed != w.NumPassed || len(g.BestSim) != len(w.BestSim) || len(g.Passed) != len(w.Passed) {
			t.Fatalf("%s: candidate %d: set %d passed %d over %d/%d elements, want set %d passed %d over %d/%d",
				label, i, g.Set, g.NumPassed, len(g.BestSim), len(g.Passed), w.Set, w.NumPassed, len(w.BestSim), len(w.Passed))
		}
		for x := range g.BestSim {
			if math.Float64bits(g.BestSim[x]) != math.Float64bits(w.BestSim[x]) || g.Passed[x] != w.Passed[x] {
				t.Fatalf("%s: candidate %d (set %d) element %d: (%v,%v), want (%v,%v)",
					label, i, g.Set, x, g.BestSim[x], g.Passed[x], w.BestSim[x], w.Passed[x])
			}
		}
	}
}

// TestCollectorRetentionGate pins the arenas' retention rule: after one
// pass that touched every set, a worker whose passes have become narrow
// must, within two retention windows, hold no more than retainSlack times
// what a narrow pass needs — O(recent need), not O(broadest pass ever) —
// and a broad pass afterwards must be answered exactly as a fresh collector
// answers it.
func TestCollectorRetentionGate(t *testing.T) {
	const coldSets = 400
	r, broad, narrow, ix := retainSetup(t, coldSets)
	n := len(r.Elements)
	cl := NewCollector(ix)
	opts := Options{CheckFilter: true}

	// Pass 1 touches every set — the hot one plus all cold ones.
	cands, _ := cl.Collect(r, broad, jacPhi, opts)
	if len(cands) != coldSets+1 {
		t.Fatalf("broad pass collected %d candidates, want %d", len(cands), coldSets+1)
	}
	before := arenaBytes(cl)
	if cap(cl.sets) < coldSets+1 || cap(cl.best) < (coldSets+1)*n {
		t.Fatalf("after the broad pass the arenas hold %d rows and %d cells, want at least %d and %d",
			cap(cl.sets), cap(cl.best), coldSets+1, (coldSets+1)*n)
	}

	// The narrow signature touches only the hot set. The broad pass may
	// fall in the first window, so the second is the first all-narrow one.
	for pass := 0; pass < 2*retainWindow+1; pass++ {
		hc, _ := cl.Collect(r, narrow, jacPhi, opts)
		if len(hc) != 1 {
			t.Fatalf("narrow pass collected %d candidates, want 1", len(hc))
		}
	}
	if cap(cl.sets) > retainSlack || cap(cl.npass) > retainSlack || cap(cl.cands) > retainSlack || cap(cl.out) > retainSlack ||
		cap(cl.best) > retainSlack*n || cap(cl.passed) > retainSlack*n {
		t.Errorf("after %d one-candidate passes the arenas hold sets %d npass %d cands %d out %d (want ≤ %d), best %d passed %d (want ≤ %d)",
			2*retainWindow+1, cap(cl.sets), cap(cl.npass), cap(cl.cands), cap(cl.out), retainSlack,
			cap(cl.best), cap(cl.passed), retainSlack*n)
	}
	if after := arenaBytes(cl); after*10 > before {
		t.Errorf("arenas hold %d bytes after the narrow passes, %d after the broad one: nothing was let go", after, before)
	}

	// Released arenas must grow back correctly when the broad signature
	// returns.
	back, backRaw := cl.Collect(r, broad, jacPhi, opts)
	want, wantRaw := NewCollector(ix).Collect(r, broad, jacPhi, opts)
	if backRaw != wantRaw {
		t.Fatalf("broad pass after release: raw count %d, a fresh collector's %d", backRaw, wantRaw)
	}
	sameCandidates(t, "broad pass after release", back, want)
}

// TestCollectorRetentionKeepsSteadyStateAllocFree pins the other side of the
// rule: a workload that needs the same arenas every pass never has them
// released, so steady-state collection stays at zero allocations while the
// collector crosses several retention windows.
func TestCollectorRetentionKeepsSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	r, sig, ix, _ := paperSetup(t)
	cl := NewCollector(ix)
	opts := Options{CheckFilter: true, PruneThreshold: 2.1 - pruneSlack}
	cl.Collect(r, sig, jacPhi, opts)
	cl.Collect(r, sig, jacPhi, opts)
	// 3 × retainWindow runs cross at least three window boundaries.
	if got := testing.AllocsPerRun(3*retainWindow, func() { cl.Collect(r, sig, jacPhi, opts) }); got > 0 {
		t.Errorf("steady-state Collect allocates %.2f objects across retention windows, want 0", got)
	}
}
