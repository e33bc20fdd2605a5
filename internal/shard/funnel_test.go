package shard

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"silkmoth/internal/core"
	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/signature"
	"silkmoth/internal/tokens"
)

// countdownCtx reports cancellation from its n-th Err call on: a pass
// polls Err between verification steps, so small n values cancel it at
// chosen points without a clock. (Done is Background's nil channel; the
// search paths only poll it.)
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// requireConserved checks that a query's capture is exactly what the
// query added to the engine's cumulative counters, field by field over
// whatever fields core.Funnel has, and the funnel's stage identities.
func requireConserved(t *testing.T, got, before, after core.Funnel, refined bool) {
	t.Helper()
	g, b, a := reflect.ValueOf(got), reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < g.NumField(); i++ {
		if diff := a.Field(i).Int() - b.Field(i).Int(); g.Field(i).Int() != diff {
			t.Errorf("%s: the capture has %d, the engine's counters grew by %d",
				g.Type().Field(i).Name, g.Field(i).Int(), diff)
		}
	}
	if got.SearchPasses == 0 || got.TimedPasses != got.SearchPasses {
		t.Errorf("capture counts %d passes, %d of them timed; want every pass of a captured query timed", got.SearchPasses, got.TimedPasses)
	}
	if got.Candidates != got.AfterCheck+got.CheckPruned {
		t.Errorf("Candidates %d != AfterCheck %d + CheckPruned %d", got.Candidates, got.AfterCheck, got.CheckPruned)
	}
	if refined && got.AfterCheck != got.AfterNN+got.NNPruned {
		t.Errorf("AfterCheck %d != AfterNN %d + NNPruned %d", got.AfterCheck, got.AfterNN, got.NNPruned)
	}
}

// TestFunnelConservation: every pass charges one private record that is
// folded both into the engine's cumulative counters and into the query's
// capture, so for a query running alone the two must agree exactly — on
// every query shape, including the ones where several goroutines share the
// capture (helper-run chunks, batch, discovery) and the ones that leave the
// pipeline early (full scan, cancellation). Every search wider than one
// goroutine is forced to split. Run under -race it also checks that sharing.
func TestFunnelConservation(t *testing.T) {
	defer core.ForceSplitForTest()()
	ctx := context.Background()
	raws := datagen.RepeatedElements(9100, 160, 12)
	jaccard := core.DefaultOptions(core.SetSimilarity, core.Jaccard, 0.5, 0.5)
	jaccard.Concurrency = 3
	verifyPar := jaccard
	verifyPar.Concurrency = 4
	serial := jaccard
	serial.Concurrency = 1
	// Edit similarity with one q-chunk per element has no valid signature
	// (§7.3): every pass is a full scan.
	noSig := core.Options{
		Metric: core.SetSimilarity, Sim: core.Eds, Delta: 0.75, Q: 8,
		Scheme: signature.Dichotomy, CheckFilter: true, NNFilter: true,
	}
	noSigRaws := []dataset.RawSet{
		{Name: "A", Elements: []string{"abcdefgh"}},
		{Name: "B", Elements: []string{"abcdefgx"}},
		{Name: "C", Elements: []string{"zzzzzzzz"}},
	}
	// manySurvivors is how many candidates a pass must verify for the
	// cancellation cases to cut into its verifications.
	const manySurvivors = 16

	searchAll := func(e atWidth, q *core.Query) error {
		for ri := range e.Collection().Sets {
			if _, err := e.searchQuery(ctx, &e.Collection().Sets[ri], q); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name   string
		shards int
		opts   core.Options
		coll   *dataset.Collection
		run    func(e atWidth, q *core.Query) error
		check  func(t *testing.T, f core.Funnel)
	}{
		{name: "search/N=1", shards: 1, opts: jaccard, run: searchAll},
		{name: "search/N=2", shards: 2, opts: jaccard, run: searchAll},
		{name: "search/N=7", shards: 7, opts: jaccard, run: searchAll},
		{name: "batch", shards: 2, opts: jaccard, run: func(e atWidth, q *core.Query) error {
			refs := e.Collection().Sets
			qs := make([]*core.Query, len(refs))
			for i := range qs {
				qs[i] = q
			}
			_, err := e.SearchBatchQueries(ctx, refs, qs, e.width)
			return err
		}},
		{name: "discover", shards: 2, opts: jaccard, run: func(e atWidth, q *core.Query) error {
			_, err := e.DiscoverQueryContext(ctx, e.Collection(), q, e.width)
			return err
		}},
		{name: "parallel verification", shards: 4, opts: verifyPar, run: searchAll,
			check: func(t *testing.T, f core.Funnel) {
				if f.SplitPasses != f.SearchPasses || f.Verified == 0 {
					t.Errorf("want every pass split and verifying, got %+v", f)
				}
			}},
		{name: "full scan", shards: 1, opts: noSig, coll: dataset.BuildQGram(tokens.NewDictionary(), noSigRaws, 8),
			run: searchAll,
			check: func(t *testing.T, f core.Funnel) {
				if f.FullScans != f.SearchPasses || f.Verified == 0 || f.Candidates != 0 {
					t.Errorf("want every pass a verifying full scan, got %+v", f)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coll := tc.coll
			if coll == nil {
				coll = buildColl(raws, tc.opts.Sim, tc.opts.Delta, tc.opts.Alpha)
			}
			e := newAt(t, coll, tc.shards, tc.opts)
			q := &core.Query{Stats: &core.Capture{}}
			before := e.Stats()
			if err := tc.run(e, q); err != nil {
				t.Fatal(err)
			}
			got := q.Stats.Funnel()
			requireConserved(t, got, before, e.Stats(), true)
			if tc.check != nil {
				tc.check(t, got)
			} else if got.Candidates == 0 || got.Verified == 0 || got.SimEvals == 0 || got.SimCounted == 0 || got.SimBounded == 0 {
				// Jaccard: the check filter drops pairs on their count bound
				// and calls the kernel for the rest, the nearest-neighbor
				// filter scores from overlap counts.
				t.Errorf("the workload exercised no funnel: %+v", got)
			}
		})
	}

	// A pass cancelled between two verifications, serial and split into
	// set-id chunks at two widths: what it counted up to there is in both
	// records, and the pass reports the cancellation.
	for _, tc := range []struct {
		name   string
		shards int
		opts   core.Options
	}{
		{"concurrency=1", 1, serial},
		{"concurrency=4", 4, verifyPar},
		{"shards=2", 2, serial},
	} {
		opts := tc.opts
		t.Run("cancelled mid-verification/"+tc.name, func(t *testing.T) {
			e := newAt(t, buildColl(raws, opts.Sim, opts.Delta, opts.Alpha), tc.shards, opts)
			probe := &core.Query{Stats: &core.Capture{}}
			ref := -1
			for ri := range e.Collection().Sets {
				before := probe.Stats.Funnel().AfterCheck
				if _, err := e.searchQuery(ctx, &e.Collection().Sets[ri], probe); err != nil {
					t.Fatal(err)
				}
				if probe.Stats.Funnel().AfterCheck-before >= manySurvivors {
					ref = ri
					break
				}
			}
			if ref < 0 {
				t.Fatal("no reference with enough survivors to cancel between them")
			}
			for polls := int64(1); ; polls++ {
				cctx := &countdownCtx{Context: ctx}
				cctx.left.Store(polls)
				q := &core.Query{Stats: &core.Capture{}}
				before := e.Stats()
				_, err := e.searchQuery(cctx, &e.Collection().Sets[ref], q)
				if err == nil {
					t.Fatalf("the pass completed after %d context polls without ever being cancelled mid-verification", polls)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				got := q.Stats.Funnel()
				if got.SearchPasses == 0 {
					continue // cancelled before the pass began
				}
				requireConserved(t, got, before, e.Stats(), false)
				if refined := got.AfterNN + got.NNPruned; refined > 0 {
					if refined >= got.AfterCheck {
						t.Fatalf("cancelled after all %d survivors were refined: not mid-verification", got.AfterCheck)
					}
					return
				}
			}
		})
	}
}
