package silkmoth

import (
	"context"
	"encoding"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"silkmoth/internal/core"
)

// matchesEqual asserts two match lists are bit-identical.
func matchesEqual(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d differs: got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// TestWithSchemePinMatchesFixedEngine pins the per-query scheme override:
// on an Auto engine, a query pinned to any fixed scheme must return
// bit-identical results to an engine built with that scheme, and the
// explain capture must report the pinned concrete scheme — serial and
// sharded.
func TestWithSchemePinMatchesFixedEngine(t *testing.T) {
	sets := autoGridCorpus(101, 24)
	queries := autoGridCorpus(102, 5)
	for _, shards := range []int{1, 2, 7} {
		base := Config{Similarity: Jaccard, Delta: 0.6, Alpha: 0.5, Shards: shards}
		autoCfg := base
		autoCfg.Scheme = SchemeAuto
		autoEng, err := NewEngine(sets, autoCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pin := range []Scheme{SchemeDichotomy, SchemeSkyline, SchemeWeighted, SchemeCombUnweighted} {
			fixedCfg := base
			fixedCfg.Scheme = pin
			fixedEng, err := NewEngine(sets, fixedCfg)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				label := fmt.Sprintf("shards=%d pin=%v query=%d", shards, pin, qi)
				var ex Explain
				pinned, err := autoEng.SearchContext(context.Background(), q, WithScheme(pin), WithExplain(&ex))
				if err != nil {
					t.Fatal(err)
				}
				fixed, err := fixedEng.SearchContext(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, label, pinned, fixed)
				if ex.FullScans == 0 && ex.Scheme != pin.String() {
					t.Fatalf("%s: explain scheme %q, want %q", label, ex.Scheme, pin)
				}
			}
		}
	}
}

// TestBatchMixedSchemesMatchesFixedEngines is the per-item batch
// equivalence: an Auto-engine batch mixing pinned and auto items must
// return results bit-identical to per-query searches on fixed-scheme
// engines (pinned items) and on the Auto engine itself (auto items) —
// serial and sharded at N ∈ {1, 2, 7}.
func TestBatchMixedSchemesMatchesFixedEngines(t *testing.T) {
	sets := autoGridCorpus(103, 30)
	queries := autoGridCorpus(104, 9)
	pins := []Scheme{SchemeDichotomy, SchemeSkyline, SchemeWeighted, SchemeCombUnweighted}
	for _, shards := range []int{1, 2, 7} {
		base := Config{Similarity: Jaccard, Delta: 0.6, Alpha: 0.5, Shards: shards, Concurrency: 3}
		autoCfg := base
		autoCfg.Scheme = SchemeAuto
		autoEng, err := NewEngine(sets, autoCfg)
		if err != nil {
			t.Fatal(err)
		}
		fixedEngs := make(map[Scheme]*Engine, len(pins))
		for _, pin := range pins {
			cfg := base
			cfg.Scheme = pin
			fixedEngs[pin], err = NewEngine(sets, cfg)
			if err != nil {
				t.Fatal(err)
			}
		}

		// Items alternate: pinned to each scheme in turn, with every third
		// item left on Auto.
		batch := make([]BatchQuery, len(queries))
		explains := make([]Explain, len(queries))
		itemPin := make([]Scheme, len(queries))
		itemAuto := make([]bool, len(queries))
		for i, q := range queries {
			batch[i] = BatchQuery{Set: q, Options: []QueryOption{WithExplain(&explains[i])}}
			if i%3 == 2 {
				itemAuto[i] = true
				continue
			}
			itemPin[i] = pins[i%len(pins)]
			batch[i].Options = append(batch[i].Options, WithScheme(itemPin[i]))
		}
		results, err := autoEng.SearchBatchQueriesContext(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(queries) {
			t.Fatalf("shards=%d: got %d results, want %d", shards, len(results), len(queries))
		}
		for i, res := range results {
			label := fmt.Sprintf("shards=%d item=%d", shards, i)
			var want []Match
			if itemAuto[i] {
				want, err = autoEng.SearchContext(context.Background(), queries[i])
			} else {
				want, err = fixedEngs[itemPin[i]].SearchContext(context.Background(), queries[i])
			}
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, label, res.Matches, want)
			if res.Explain == nil {
				t.Fatalf("%s: missing per-item explain", label)
			}
			if !itemAuto[i] && res.Explain.FullScans == 0 && res.Explain.Scheme != itemPin[i].String() {
				t.Fatalf("%s: explain scheme %q, want pinned %q", label, res.Explain.Scheme, itemPin[i])
			}
		}
	}
}

// TestWithDeltaMatchesRebuiltEngine pins the per-query δ override: results
// must be exactly those of an engine built with that δ, serial and
// sharded, for both metrics.
func TestWithDeltaMatchesRebuiltEngine(t *testing.T) {
	sets := autoGridCorpus(105, 24)
	queries := autoGridCorpus(106, 5)
	for _, metric := range []Metric{SetSimilarity, SetContainment} {
		for _, shards := range []int{1, 3} {
			for _, delta := range []float64{0.4, 0.8} {
				loose := Config{Metric: metric, Similarity: Jaccard, Delta: 0.6, Shards: shards}
				eng, err := NewEngine(sets, loose)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt := loose
				rebuilt.Delta = delta
				wantEng, err := NewEngine(sets, rebuilt)
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					got, err := eng.SearchContext(context.Background(), q, WithDelta(delta))
					if err != nil {
						t.Fatal(err)
					}
					want, err := wantEng.SearchContext(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					matchesEqual(t, fmt.Sprintf("%v shards=%d δ=%g query=%d", metric, shards, delta, qi), got, want)
				}
			}
		}
	}
}

// TestWithKMatchesTopK pins the top-k spellings against each other: WithK,
// SearchTopKContext, WithK on the item of a one-item
// SearchBatchQueriesContext and on each item of a five-item one, and
// truncating a full SearchContext must agree bit-for-bit, serial and at
// width 3, with every pass wider than one
// goroutine split or left to split itself. Every spelling keeps its best k in
// one bounded heap: on the split schedule (a single search at width 3) and on
// the fan-out one (the five-item batch).
func TestWithKMatchesTopK(t *testing.T) {
	sets := autoGridCorpus(107, 24)
	queries := autoGridCorpus(108, 5)
	for _, forced := range []bool{false, true} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("forced=%v/shards=%d", forced, shards), func(t *testing.T) {
				if forced {
					defer core.ForceSplitForTest()()
				}
				eng, err := NewEngine(sets, Config{Similarity: Jaccard, Delta: 0.5, Shards: shards, Concurrency: 2})
				if err != nil {
					t.Fatal(err)
				}
				fulls := make([][]Match, len(queries))
				for qi, q := range queries {
					if fulls[qi], err = eng.SearchContext(context.Background(), q); err != nil {
						t.Fatal(err)
					}
				}
				for variant := range 4 {
					batch := make([]BatchQuery, len(queries))
					wants := make([][]Match, len(queries))
					for qi, q := range queries {
						full := fulls[qi]
						k := max(1, []int{1, 2, len(full), len(full) + 3}[variant])
						want := full[:min(k, len(full))]
						batch[qi], wants[qi] = BatchQuery{Set: q, Options: []QueryOption{WithK(k)}}, want
						byOpt, err := eng.SearchContext(context.Background(), q, WithK(k))
						if err != nil {
							t.Fatal(err)
						}
						byTopK, err := eng.SearchTopKContext(context.Background(), q, k)
						if err != nil {
							t.Fatal(err)
						}
						one, err := eng.SearchBatchQueriesContext(context.Background(), batch[qi:qi+1])
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("query=%d k=%d", qi, k)
						matchesEqual(t, label+" WithK", byOpt, want)
						matchesEqual(t, label+" SearchTopK", byTopK, want)
						matchesEqual(t, label+" one-item batch", one[0].Matches, want)
					}
					res, err := eng.SearchBatchQueriesContext(context.Background(), batch)
					if err != nil {
						t.Fatal(err)
					}
					for qi := range res {
						matchesEqual(t, fmt.Sprintf("variant=%d query=%d five-item batch", variant, qi), res[qi].Matches, wants[qi])
					}
				}
			})
		}
	}
}

// TestFilterTogglesNeverChangeResults pins the exactness guarantee under
// the per-query filter toggles: disabling any combination of filters must
// return identical matches.
func TestFilterTogglesNeverChangeResults(t *testing.T) {
	sets := autoGridCorpus(109, 24)
	queries := autoGridCorpus(110, 5)
	for _, shards := range []int{1, 3} {
		eng, err := NewEngine(sets, Config{Similarity: Jaccard, Delta: 0.5, Alpha: 0.4, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		toggleSets := [][]QueryOption{
			{WithNNFilter(false)},
			{WithCheckFilter(false), WithNNFilter(false)},
		}
		for qi, q := range queries {
			want, err := eng.SearchContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for ti, opts := range toggleSets {
				got, err := eng.SearchContext(context.Background(), q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, fmt.Sprintf("shards=%d query=%d toggles=%d", shards, qi, ti), got, want)
			}
		}
	}
}

// bruteForce answers q by scoring every set of eng's collection, sorted
// like a search's matches.
func bruteForce(eng *Engine, q Set) []Match {
	eng.mu.RLock()
	scratch, qc := eng.tokenizeQuery(toRaw([]Set{q}))
	want := eng.toMatches(eng.eng.BruteForceSearch(&qc.Sets[0]))
	queryScratchPool.Put(scratch)
	eng.mu.RUnlock()
	sort.Slice(want, func(i, j int) bool {
		if want[i].Relatedness != want[j].Relatedness {
			return want[i].Relatedness > want[j].Relatedness
		}
		return want[i].Index < want[j].Index
	})
	return want
}

// TestFilterTogglesOn pins what the filter options do given that the NN
// filter implies the check filter: WithCheckFilter(false) alone changes
// nothing, and neither does turning both filters off and then the NN filter
// back on, so both answer with the brute-force oracle's matches and the
// funnel of a query without options; only both filters off stops either
// pruning.
func TestFilterTogglesOn(t *testing.T) {
	sets := autoGridCorpus(109, 24)
	queries := autoGridCorpus(110, 5)
	eng, err := NewEngine(sets, Config{Similarity: Jaccard, Delta: 0.3, Alpha: 0.3, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var checkPruned, verified int64
	for qi, q := range queries {
		var want, off Explain
		if _, err := eng.SearchContext(context.Background(), q, WithExplain(&want)); err != nil {
			t.Fatal(err)
		}
		for oi, opts := range [][]QueryOption{
			{WithCheckFilter(false)},
			{WithCheckFilter(false), WithNNFilter(false), WithNNFilter(true)},
		} {
			var got Explain
			gotMs, err := eng.SearchContext(context.Background(), q, append(opts, WithExplain(&got))...)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("query=%d options=%d", qi, oi)
			matchesEqual(t, label, gotMs, bruteForce(eng, q))
			if got.Funnel != want.Funnel || got.Passes != want.Passes {
				t.Errorf("%s: explains %+v, filters on %+v", label, got.Funnel, want.Funnel)
			}
		}
		if _, err := eng.SearchContext(context.Background(), q, WithCheckFilter(false), WithNNFilter(false), WithExplain(&off)); err != nil {
			t.Fatal(err)
		}
		if off.CheckPruned != 0 || off.NNPruned != 0 {
			t.Errorf("query=%d: both filters off still pruned: %+v", qi, off.Funnel)
		}
		checkPruned += want.CheckPruned
		verified += want.Verified
	}
	if checkPruned == 0 || verified == 0 {
		t.Fatalf("check filter pruned %d, %d verified: the corpus cannot tell whether the filters ran", checkPruned, verified)
	}
}

// TestReductionToggleOnStaysSound queries engines where the §5.3
// reduction's metric requirement fails — NEds, and Jaccard and Eds at α > 0.
// The engine keeps the reduction off there, on the engine's own options and
// on a query that resolves its own, so the answers are the brute-force
// oracle's.
func TestReductionToggleOnStaysSound(t *testing.T) {
	// At α = 0.5 the reduction would match the shared "p q r s" outright and
	// score 1 + 0 (φ("p q r t", "q r s u") = 1/3 falls below α), where the
	// crossed matching scores 0.6 + 0.6: relatedness 1/3 against 3/7, on
	// either side of δ = 0.4.
	sets := append(autoGridCorpus(109, 24), Set{Name: "crossed", Elements: []string{"p q r s", "q r s u"}})
	queries := append(autoGridCorpus(110, 5), Set{Elements: []string{"p q r s", "p q r t"}})
	for _, cfg := range []Config{
		{Similarity: NEds, Delta: 0.5},
		{Similarity: Jaccard, Delta: 0.3, Alpha: 0.3},
		{Similarity: Jaccard, Delta: 0.4, Alpha: 0.5},
		{Similarity: Eds, Delta: 0.5, Alpha: 0.6},
	} {
		cfg.Shards = 1
		eng, err := NewEngine(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for qi, q := range queries {
			want := bruteForce(eng, q)
			// The explain capture makes the query resolve its own options.
			for oi, opts := range [][]QueryOption{nil, {WithExplain(new(Explain))}} {
				got, err := eng.SearchContext(context.Background(), q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, fmt.Sprintf("%v α=%g query=%d options=%d", cfg.Similarity, cfg.Alpha, qi, oi), got, want)
			}
			found += len(want)
		}
		if found == 0 {
			t.Errorf("%v α=%g: no query matched anything", cfg.Similarity, cfg.Alpha)
		}
	}
}

// TestExplainFunnelConsistency pins the per-query capture arithmetic on
// search and discovery, serial and sharded: candidates split exactly
// across the check filter, survivors across the NN filter, and signatured
// passes verify exactly their NN survivors.
func TestExplainFunnelConsistency(t *testing.T) {
	sets := autoGridCorpus(111, 24)
	queries := autoGridCorpus(112, 4)
	check := func(t *testing.T, label string, ex *Explain) {
		t.Helper()
		if ex.Passes == 0 {
			t.Fatalf("%s: no passes recorded", label)
		}
		if ex.Candidates != ex.AfterCheck+ex.CheckPruned {
			t.Fatalf("%s: candidates %d != after-check %d + check-pruned %d",
				label, ex.Candidates, ex.AfterCheck, ex.CheckPruned)
		}
		if ex.AfterCheck != ex.AfterNN+ex.NNPruned {
			t.Fatalf("%s: after-check %d != after-nn %d + nn-pruned %d",
				label, ex.AfterCheck, ex.AfterNN, ex.NNPruned)
		}
		if ex.FullScans == 0 && ex.Verified != ex.AfterNN {
			t.Fatalf("%s: verified %d != after-nn %d on signatured passes",
				label, ex.Verified, ex.AfterNN)
		}
		if ex.Scheme == "" && ex.Passes > ex.FullScans {
			t.Fatalf("%s: signatured passes but no scheme name (%+v)", label, ex)
		}
	}
	for _, shards := range []int{1, 2, 7} {
		for _, scheme := range []Scheme{SchemeDichotomy, SchemeAuto} {
			eng, err := NewEngine(sets, Config{Similarity: Jaccard, Delta: 0.6, Alpha: 0.5, Shards: shards, Scheme: scheme, Concurrency: 2})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				var ex Explain
				ms, err := eng.SearchContext(context.Background(), q, WithExplain(&ex))
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("shards=%d scheme=%v query=%d", shards, scheme, qi)
				check(t, label, &ex)
				if ex.Passes != 1 {
					t.Fatalf("%s: %d passes, want one per query", label, ex.Passes)
				}
				plain, err := eng.SearchContext(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, label, ms, plain)
			}

			var dex Explain
			if _, err := eng.DiscoverContext(context.Background(), WithExplain(&dex)); err != nil {
				t.Fatal(err)
			}
			check(t, fmt.Sprintf("shards=%d scheme=%v discover", shards, scheme), &dex)
			if want := int64(len(sets)); dex.Passes != want {
				t.Fatalf("shards=%d scheme=%v discover: %d passes, want one per reference (%d)",
					shards, scheme, dex.Passes, want)
			}
		}
	}
}

// TestFunnelConservationPublic: the root package lowers the engine's one
// funnel record to one public Funnel, which Stats (cumulative) and Explain
// (one query's capture) embed. For a query running alone they must tell
// the same story: every counter Explain reports is what Stats grew by, on
// one shard and on several, for a search, a batch and a discovery.
func TestFunnelConservationPublic(t *testing.T) {
	sets := autoGridCorpus(121, 24)
	for _, shards := range []int{1, 2} {
		eng, err := NewEngine(sets, Config{Similarity: Jaccard, Delta: 0.6, Alpha: 0.5, Shards: shards, Concurrency: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			run  func(ex *Explain) error
		}{
			{"search", func(ex *Explain) error {
				_, err := eng.SearchContext(context.Background(), sets[0], WithExplain(ex))
				return err
			}},
			{"batch", func(ex *Explain) error {
				// Four items, four captures: their sum is the batch's.
				batch := make([]BatchQuery, 4)
				items := make([]Explain, len(batch))
				for i := range batch {
					batch[i] = BatchQuery{Set: sets[i], Options: []QueryOption{WithExplain(&items[i])}}
				}
				_, err := eng.SearchBatchQueriesContext(context.Background(), batch)
				for _, it := range items {
					addExplain(ex, it)
				}
				return err
			}},
			{"discover", func(ex *Explain) error {
				_, err := eng.DiscoverContext(context.Background(), WithExplain(ex))
				return err
			}},
		} {
			label := fmt.Sprintf("shards=%d %s", shards, tc.name)
			var ex Explain
			before := eng.Stats()
			if err := tc.run(&ex); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			after := eng.Stats()
			if ex.Candidates == 0 || ex.Verified == 0 {
				t.Fatalf("%s: the query exercised no funnel: %+v", label, ex)
			}
			if diff := after.SearchPasses - before.SearchPasses; ex.Passes != diff {
				t.Errorf("%s: Explain.Passes = %d, Stats.SearchPasses grew by %d", label, ex.Passes, diff)
			}
			exv, bv, av := reflect.ValueOf(ex.Funnel), reflect.ValueOf(before.Funnel), reflect.ValueOf(after.Funnel)
			for i := 0; i < exv.NumField(); i++ {
				name := exv.Type().Field(i).Name
				if diff := av.Field(i).Int() - bv.Field(i).Int(); exv.Field(i).Int() != diff {
					t.Errorf("%s: Explain.%s = %d, Stats.%s grew by %d", label, name, exv.Field(i).Int(), name, diff)
				}
			}
			if diff := after.TimedPasses - before.TimedPasses; diff != ex.Passes {
				t.Errorf("%s: %d passes explained, %d timed", label, ex.Passes, diff)
			}
			wantStages := StageTimes{
				Signature: after.Stages.Signature - before.Stages.Signature,
				Collect:   after.Stages.Collect - before.Stages.Collect,
				Refine:    after.Stages.Refine - before.Stages.Refine,
				Verify:    after.Stages.Verify - before.Stages.Verify,
			}
			if ex.Stages != wantStages {
				t.Errorf("%s: Explain.Stages = %+v, Stats.Stages grew by %+v", label, ex.Stages, wantStages)
			}
			var bySchemes int64
			for _, n := range ex.Schemes {
				bySchemes += n
			}
			if diff := (after.SchemeWeighted + after.SchemeSkyline + after.SchemeDichotomy + after.SchemeCombUnweighted) -
				(before.SchemeWeighted + before.SchemeSkyline + before.SchemeDichotomy + before.SchemeCombUnweighted); bySchemes != diff {
				t.Errorf("%s: Explain.Schemes counts %d signatured passes, Stats %d", label, bySchemes, diff)
			}
		}
	}
}

// addExplain adds b's counters, stage times and scheme counts into a.
func addExplain(a *Explain, b Explain) {
	a.Passes += b.Passes
	av, bv := reflect.ValueOf(&a.Funnel).Elem(), reflect.ValueOf(b.Funnel)
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(av.Field(i).Int() + bv.Field(i).Int())
	}
	a.Stages.Signature += b.Stages.Signature
	a.Stages.Collect += b.Stages.Collect
	a.Stages.Refine += b.Stages.Refine
	a.Stages.Verify += b.Stages.Verify
	for name, n := range b.Schemes {
		if a.Schemes == nil {
			a.Schemes = make(map[string]int64)
		}
		a.Schemes[name] += n
	}
}

// TestQueryOptionValidation pins the option error surface.
func TestQueryOptionValidation(t *testing.T) {
	eng, err := NewEngine(autoGridCorpus(113, 8), Config{Similarity: Jaccard, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	q := Set{Elements: []string{"tok1 tok2"}}
	cases := map[string]QueryOption{
		"k=0":          WithK(0),
		"delta=0":      WithDelta(0),
		"delta=1.5":    WithDelta(1.5),
		"delta=NaN":    WithDelta(math.NaN()),
		"delta=+Inf":   WithDelta(math.Inf(1)),
		"delta=-Inf":   WithDelta(math.Inf(-1)),
		"scheme=99":    WithScheme(Scheme(99)),
		"explain(nil)": WithExplain(nil),
	}
	for name, opt := range cases {
		if _, err := eng.SearchContext(context.Background(), q, opt); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// A threshold that is not a number is not a threshold: every comparison
	// with NaN is false, so a range test written as its complement let it
	// through, and the engine it built answered nothing.
	for name, cfg := range map[string]Config{
		"Delta=NaN":  {Delta: math.NaN()},
		"Delta=+Inf": {Delta: math.Inf(1)},
		"Delta=-Inf": {Delta: math.Inf(-1)},
		"Alpha=NaN":  {Delta: 0.5, Alpha: math.NaN()},
		"Alpha=+Inf": {Delta: 0.5, Alpha: math.Inf(1)},
		"Alpha=-Inf": {Delta: 0.5, Alpha: math.Inf(-1)},
	} {
		for _, simFn := range []Similarity{Jaccard, Eds} {
			cfg.Similarity = simFn
			if _, err := NewEngine(autoGridCorpus(113, 8), cfg); err == nil {
				t.Errorf("NewEngine with Config.%s under %v: expected an error", name, simFn)
			}
		}
	}
	// Later options win: WithDelta(0.9) after WithDelta(0.2) behaves as 0.9.
	strict, err := eng.SearchContext(context.Background(), q, WithDelta(0.2), WithDelta(0.9))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.SearchContext(context.Background(), q, WithDelta(0.9))
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "later option wins", strict, want)
}

// TestSchemeStringRoundTrip pins MarshalText and UnmarshalText of Metric,
// Similarity and Scheme as exact inverses over every constant, their text
// being String's, and holds UnmarshalText to rejecting anything else: an
// out-of-range value's formatting and the empty string.
func TestSchemeStringRoundTrip(t *testing.T) {
	type textual interface {
		encoding.TextMarshaler
		fmt.Stringer
	}
	roundTrip := func(v textual, dst encoding.TextUnmarshaler) {
		t.Helper()
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("%v.MarshalText: %v", v, err)
		}
		if string(text) != v.String() {
			t.Fatalf("%v marshals to %q, not its String form", v, text)
		}
		if err := dst.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if got := reflect.ValueOf(dst).Elem().Interface(); got != v {
			t.Fatalf("round trip %v -> %q -> %v", v, text, got)
		}
	}
	for m := range Metric(len(metricNames)) {
		roundTrip(m, new(Metric))
	}
	for s := range Similarity(len(similarityNames)) {
		roundTrip(s, new(Similarity))
	}
	for s := range Scheme(len(schemeNames)) {
		roundTrip(s, new(Scheme))
	}
	// Metric also reads the CLI's spellings.
	for text, want := range map[string]Metric{"similarity": SetSimilarity, "containment": SetContainment} {
		var m Metric
		if err := m.UnmarshalText([]byte(text)); err != nil || m != want {
			t.Fatalf("Metric.UnmarshalText(%q) = %v, %v; want %v", text, m, err, want)
		}
	}

	for _, bad := range []struct {
		v   textual
		dst encoding.TextUnmarshaler
	}{
		{Scheme(42), new(Scheme)},
		{Metric(2), new(Metric)},
		{Similarity(-1), new(Similarity)},
	} {
		if text, err := bad.v.MarshalText(); err == nil {
			t.Errorf("%v marshals to %q", bad.v, text)
		}
		for _, text := range []string{bad.v.String(), ""} {
			if err := bad.dst.UnmarshalText([]byte(text)); err == nil {
				t.Errorf("%T.UnmarshalText accepted %q", bad.dst, text)
			}
		}
	}
}
