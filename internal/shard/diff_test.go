package shard

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"silkmoth/internal/core"
	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/signature"
	"silkmoth/internal/tokens"
)

// The split-search differential harness: one seeded workload pushed through
// the serial core engine and through the engine at several widths, asserting
// the outputs are identical — same match sets, same scores bit for bit, same
// canonical order — for every metric × similarity combination, both when the
// engine is built fresh over the full collection (its index filled from as
// many set-id ranges as its width) and when part of it arrives through
// AppendSets after construction. This is the safety net the motivation calls
// for: optimized similarity-search paths must never silently diverge from
// the reference implementation.

// diffShardCounts are the widths every differential case runs at: the
// caller's goroutine alone, two, and a prime count that leaves goroutines
// unevenly loaded. The grids force every wider pass to split into one chunk
// per slot (core.ForceSplitForTest): self-timing would never split their
// tiny corpora.
var diffShardCounts = []int{1, 2, 7}

// sameFunnel fails unless a query's funnel at some width is got and at
// width 1 want, on the counts that do not depend on how the work was cut:
// SimEvals does, since every chunk's worker has its own memo.
func sameFunnel(t *testing.T, label string, got, want core.Funnel) {
	t.Helper()
	if got.Candidates != want.Candidates || got.AfterCheck != want.AfterCheck ||
		got.AfterNN != want.AfterNN || got.Verified != want.Verified {
		t.Fatalf("%s: funnel %v, width 1's %v", label, got, want)
	}
}

// corpusRaws returns the seeded generator workload appropriate for the
// similarity's token mode: WebTable-style schemas for the word
// similarities, DBLP-style titles (short word elements, cheap edit
// distances) for the edit similarities.
func corpusRaws(sim core.SimKind, seed int64) []dataset.RawSet {
	if sim.TokenMode() == dataset.ModeWord {
		return datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: 90, Seed: seed})
	}
	return datagen.DBLP(datagen.DBLPConfig{NumTitles: 24, Seed: seed, MeanWords: 5})
}

// buildColl tokenizes raws the way a core engine with these options would.
func buildColl(raws []dataset.RawSet, sim core.SimKind, delta, alpha float64) *dataset.Collection {
	dict := tokens.NewDictionary()
	if sim.TokenMode() == dataset.ModeWord {
		return dataset.BuildWord(dict, raws)
	}
	return dataset.BuildQGram(dict, raws, core.DefaultQ(delta, alpha))
}

// runDifferential is the reusable harness body for one metric × similarity
// case. The serial engine's discovery, per-reference search, and top-k
// prefixes are the reference; every (width, build mode) variant must
// reproduce them exactly.
func runDifferential(t *testing.T, metric core.Metric, sim core.SimKind, delta, alpha float64) {
	t.Helper()
	ctx := context.Background()
	raws := corpusRaws(sim, 42)
	opts := core.DefaultOptions(metric, sim, delta, alpha)
	opts.Concurrency = 3

	coll := buildColl(raws, sim, delta, alpha)
	serial, err := core.NewEngine(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs, err := serial.DiscoverQueryContext(context.Background(), coll, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPairs) == 0 {
		t.Fatal("workload produced no related pairs; tune the corpus or thresholds")
	}
	wantMatches := make([][]core.Match, len(coll.Sets))
	wantFunnels := make([]core.Funnel, len(coll.Sets))
	for ri := range coll.Sets {
		q := &core.Query{Stats: &core.Capture{}}
		ms, err := serial.SearchSplitContext(context.Background(), &coll.Sets[ri], q, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantMatches[ri] = ms
		wantFunnels[ri] = q.Stats.Funnel()
	}

	cut := len(raws) * 2 / 3
	for _, n := range diffShardCounts {
		for _, mode := range []string{"fresh", "post-add"} {
			name := fmt.Sprintf("N=%d/%s", n, mode)
			var e atWidth
			if mode == "fresh" {
				e = newAt(t, coll, n, opts)
			} else {
				// Build over a prefix (its own dictionary, so token ids
				// differ from the serial engine's — scores must not care),
				// then grow to the full corpus through AppendSets.
				e = newAt(t, buildColl(raws[:cut], sim, delta, alpha), n, opts)
				e.add(raws[cut:])
			}
			if e.LiveCount() != len(coll.Sets) {
				t.Fatalf("%s: %d sets, want %d", name, e.LiveCount(), len(coll.Sets))
			}

			gotPairs, err := e.discover(ctx)
			if err != nil {
				t.Fatalf("%s: discover: %v", name, err)
			}
			if len(gotPairs) != len(wantPairs) {
				t.Fatalf("%s: %d pairs, serial found %d", name, len(gotPairs), len(wantPairs))
			}
			for i := range wantPairs {
				if gotPairs[i] != wantPairs[i] { // exact: indices AND float scores
					t.Fatalf("%s: pair %d = %+v, serial %+v", name, i, gotPairs[i], wantPairs[i])
				}
			}

			refs := e.Collection()
			for ri := range refs.Sets {
				q := &core.Query{Stats: &core.Capture{}}
				got, err := e.searchQuery(ctx, &refs.Sets[ri], q)
				if err != nil {
					t.Fatalf("%s: search %d: %v", name, ri, err)
				}
				if mode == "fresh" { // post-add has its own dictionary, so other signatures
					sameFunnel(t, fmt.Sprintf("%s: ref %d", name, ri), q.Stats.Funnel(), wantFunnels[ri])
				}
				want := wantMatches[ri]
				if len(got) != len(want) {
					t.Fatalf("%s: ref %d: %d matches, serial found %d", name, ri, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: ref %d match %d = %+v, serial %+v", name, ri, i, got[i], want[i])
					}
				}
				for _, k := range []int{1, 3} {
					gotK, err := e.topK(ctx, &refs.Sets[ri], k)
					if err != nil {
						t.Fatalf("%s: topk %d: %v", name, ri, err)
					}
					wantK := want
					if len(wantK) > k {
						wantK = wantK[:k]
					}
					if len(gotK) != len(wantK) {
						t.Fatalf("%s: ref %d top-%d: %d matches, want %d", name, ri, k, len(gotK), len(wantK))
					}
					for i := range wantK {
						if gotK[i] != wantK[i] {
							t.Fatalf("%s: ref %d top-%d item %d = %+v, want %+v", name, ri, k, i, gotK[i], wantK[i])
						}
					}
				}
			}
		}
	}
}

// TestDifferentialSerialVsSharded sweeps the full metric × similarity
// grid through the harness.
func TestDifferentialSerialVsSharded(t *testing.T) {
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
				runDifferential(t, metric, sim, delta, 0)
			})
		}
	}
}

// TestDifferentialBatchMatchesSearch pins SearchBatchQueries to one search
// per reference at every width: batching is a scheduling optimization, never
// a result change.
func TestDifferentialBatchMatchesSearch(t *testing.T) {
	ctx := context.Background()
	raws := corpusRaws(core.Jaccard, 7)
	opts := core.DefaultOptions(core.SetSimilarity, core.Jaccard, 0.6, 0)
	opts.Concurrency = 4
	coll := buildColl(raws, core.Jaccard, 0.6, 0)

	for _, n := range diffShardCounts {
		e := newAt(t, coll, n, opts)
		refs := coll.Sets
		got, err := e.batch(ctx, coll)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(refs) {
			t.Fatalf("N=%d: %d results for %d refs", n, len(got), len(refs))
		}
		for ri := range refs {
			want, err := e.search(ctx, &refs[ri])
			if err != nil {
				t.Fatal(err)
			}
			if len(got[ri]) != len(want) {
				t.Fatalf("N=%d ref %d: batch %d matches, search %d", n, ri, len(got[ri]), len(want))
			}
			for i := range want {
				if got[ri][i] != want[i] {
					t.Fatalf("N=%d ref %d match %d: batch %+v, search %+v", n, ri, i, got[ri][i], want[i])
				}
			}
		}
	}
}

// requireSameMatches fails unless got equals want exactly: indices, scores
// bit for bit, order.
func requireSameMatches(t *testing.T, label string, got, want []core.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// rangeOf returns the range of n that set g falls in over slots slots.
func rangeOf(g, n, slots int) int {
	for k := 0; k < n; k++ {
		if _, hi := dataset.Range(k, n, slots); g < hi {
			return k
		}
	}
	return n
}

// TestDifferentialRangeBoundaries repeats a corpus after itself, so every
// set's twin sits on the far side of the middle: across the boundary of two
// of the index build's ranges and, at seven, of several, and in another
// chunk of every split search. Discovery (which does not split) and every
// search (which does) must still equal the serial engine's at
// N ∈ {1, 2, 7}, with the same per-query funnel.
func TestDifferentialRangeBoundaries(t *testing.T) {
	defer core.ForceSplitForTest()()
	ctx := context.Background()
	half := corpusRaws(core.Jaccard, 11)
	raws := append(append([]dataset.RawSet{}, half...), half...)
	opts := jaccardOpts(3)
	coll := buildColl(raws, core.Jaccard, opts.Delta, opts.Alpha)
	serial, err := core.NewEngine(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs, err := serial.DiscoverQueryContext(ctx, coll, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range diffShardCounts {
		e := newAt(t, coll, n, opts)
		gotPairs, err := e.discover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotPairs) != len(wantPairs) {
			t.Fatalf("N=%d: %d pairs, serial found %d", n, len(gotPairs), len(wantPairs))
		}
		straddling := 0
		for i, p := range gotPairs {
			if p != wantPairs[i] {
				t.Fatalf("N=%d: pair %d = %+v, serial %+v", n, i, p, wantPairs[i])
			}
			if rangeOf(p.R, n, len(coll.Sets)) != rangeOf(p.S, n, len(coll.Sets)) {
				straddling++
			}
		}
		if n > 1 && straddling < len(half) {
			t.Fatalf("N=%d: only %d of %d pairs straddle a range boundary; the corpus does not test them", n, straddling, len(gotPairs))
		}
		for ri := range coll.Sets {
			wq, q := &core.Query{Stats: &core.Capture{}}, &core.Query{Stats: &core.Capture{}}
			want, err := serial.SearchSplitContext(ctx, &coll.Sets[ri], wq, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.searchQuery(ctx, &coll.Sets[ri], q)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("N=%d ref %d", n, ri)
			requireSameMatches(t, label, got, want)
			sameFunnel(t, label, q.Stats.Funnel(), wq.Stats.Funnel())
		}
	}
}

// TestDifferentialReopenAtOtherShardCount writes the durable image of a
// mutated compressed engine at width two and reopens it at two and at seven.
// The image holds the one index, which serves every width: the reopened
// engines wrap its containers in place (SharesContainers) instead of
// rebuilding, and answer exactly as the engine that wrote it.
func TestDifferentialReopenAtOtherShardCount(t *testing.T) {
	ctx := context.Background()
	raws := corpusRaws(core.Jaccard, 5)
	opts := jaccardOpts(2)
	opts.CompressPostings = true
	w := newAt(t, buildColl(raws[:60], core.Jaccard, opts.Delta, opts.Alpha), 2, opts)
	w.add(raws[60:])
	for _, g := range []int{3, 31, 64} {
		if err := w.Delete(g); err != nil {
			t.Fatal(err)
		}
	}
	w.Compact()
	var img bytes.Buffer
	if err := dataset.SaveSnapshot(&img, w.SnapshotData()); err != nil {
		t.Fatal(err)
	}
	wantPairs, err := w.discover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 7} {
		snap, err := dataset.LoadSnapshotBytes(img.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngineFromSnapshot(snap, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		e := atWidth{eng, n}
		if !e.Index().SharesContainers() {
			t.Fatalf("reopened at %d: the index was rebuilt, not imported from the image", n)
		}
		gotPairs, err := e.discover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotPairs) == 0 || len(gotPairs) != len(wantPairs) {
			t.Fatalf("reopened at %d: %d pairs, the writer found %d", n, len(gotPairs), len(wantPairs))
		}
		for i := range wantPairs {
			if gotPairs[i] != wantPairs[i] {
				t.Fatalf("reopened at %d: pair %d = %+v, the writer's %+v", n, i, gotPairs[i], wantPairs[i])
			}
		}
		for g := range e.Collection().Sets {
			if e.Alive(g) != w.Alive(g) {
				t.Fatalf("reopened at %d: set %d alive %v, the writer's %v", n, g, e.Alive(g), w.Alive(g))
			}
			if !e.Alive(g) {
				continue
			}
			want, err := w.topK(ctx, &w.Collection().Sets[g], 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.topK(ctx, &e.Collection().Sets[g], 3)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatches(t, fmt.Sprintf("reopened at %d ref %d top-3", n, g), got, want)
		}
	}
}

// TestDifferentialFunnelAtEveryShardCount: a split search generates one
// signature — under Auto, one choice — and cuts the same candidate work
// into chunks, so its funnel is the unsplit pass's: candidates, check and
// NN survivors, verifications, and the element pairs the filters looked
// at. Only how the per-chunk memos split SimEvals from SimMemoHits may
// differ.
func TestDifferentialFunnelAtEveryShardCount(t *testing.T) {
	ctx := context.Background()
	raws := corpusRaws(core.Jaccard, 42)
	for _, scheme := range []signature.Kind{signature.Dichotomy, signature.Auto} {
		opts := jaccardOpts(3)
		opts.Scheme = scheme
		coll := buildColl(raws, core.Jaccard, opts.Delta, opts.Alpha)
		funnel := func(n int) core.Funnel {
			e := newAt(t, coll, n, opts)
			q := &core.Query{Stats: &core.Capture{}}
			for ri := range coll.Sets {
				if _, err := e.searchQuery(ctx, &coll.Sets[ri], q); err != nil {
					t.Fatal(err)
				}
			}
			return q.Stats.Funnel()
		}
		one := funnel(1)
		if one.Candidates == 0 || one.Verified == 0 {
			t.Fatalf("%v: the workload exercised no funnel: %+v", scheme, one)
		}
		for _, n := range diffShardCounts[1:] {
			got := funnel(n)
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"SearchPasses", got.SearchPasses, one.SearchPasses},
				{"SigTokens", got.SigTokens, one.SigTokens},
				{"Candidates", got.Candidates, one.Candidates},
				{"AfterCheck", got.AfterCheck, one.AfterCheck},
				{"AfterNN", got.AfterNN, one.AfterNN},
				{"Verified", got.Verified, one.Verified},
				{"SimEvals+SimMemoHits", got.SimEvals + got.SimMemoHits, one.SimEvals + one.SimMemoHits},
				{"SimCounted", got.SimCounted, one.SimCounted},
				{"SimBounded", got.SimBounded, one.SimBounded},
				{"SchemeWeighted", got.SchemeWeighted, one.SchemeWeighted},
				{"SchemeSkyline", got.SchemeSkyline, one.SchemeSkyline},
				{"SchemeDichotomy", got.SchemeDichotomy, one.SchemeDichotomy},
			} {
				if c.got != c.want {
					t.Errorf("%v N=%d: %s = %d, one range's %d", scheme, n, c.name, c.got, c.want)
				}
			}
		}
	}
}
