package dataset

import (
	"fmt"
	"strings"
	"testing"

	"silkmoth/internal/raceflag"
	"silkmoth/internal/tokens"
)

// queryScratchFixture builds an indexed collection (interning keys the way
// an engine does) and a batch of query raw sets that mix indexed content
// (keys must resolve), novel content (keys must be NoKey), empty elements,
// and Unicode.
func queryScratchFixture(mode TokenMode, q int) (*tokens.Dictionary, []RawSet) {
	dict := tokens.NewDictionary()
	indexed := []RawSet{
		{Name: "I0", Elements: []string{"alpha beta", "gamma delta epsilon", "héllo wörld"}},
		{Name: "I1", Elements: []string{"beta", "zeta eta", ""}},
	}
	Build(dict, indexed, mode, q)
	queries := []RawSet{
		{Name: "Q0", Elements: []string{"alpha beta", "totally novel element", ""}},
		{Name: "Q1", Elements: []string{"gamma delta epsilon", "beta", "  spaced   out  "}},
		{Name: "empty", Elements: nil},
		{Name: "Q2", Elements: []string{"héllo wörld", "日本語 データベース", "\xffinvalid\xfe"}},
	}
	return dict, queries
}

// TestQueryScratchMatchesSerialBuild pins the scratch query builder to
// serialBuild element by element: same raws, tokens, chunks and lengths in
// both token modes, and the same keys for indexed content. The reference
// builds into a twin of the dictionary, where a novel token is appended
// and so gets the id the scratch gives it without writing (Size()+k for
// the k-th), and a novel key is interned where the scratch gives NoKey.
// Reuse must not change results: a second Build on the same scratch must
// not corrupt what the checks see during the build that produced them.
// Each element's chunks are also checked against QChunks itself, and
// word-mode sets must carry no chunk run at all.
func TestQueryScratchMatchesSerialBuild(t *testing.T) {
	for _, tc := range []struct {
		mode TokenMode
		q    int
	}{{ModeWord, 0}, {ModeQGram, 2}, {ModeQGram, 3}} {
		t.Run(fmt.Sprintf("%v_q%d", tc.mode, tc.q), func(t *testing.T) {
			dict, queries := queryScratchFixture(tc.mode, tc.q)
			twin, _ := queryScratchFixture(tc.mode, tc.q)
			heldKeys := tokens.ID(twin.Keys().Size())
			want := serialBuild(twin, queries, tc.mode, tc.q)
			var qs QueryScratch
			for round := 0; round < 3; round++ { // reuse must not change results
				got := qs.Build(dict, queries, tc.mode, tc.q)
				if got.Mode != want.Mode || got.Q != want.Q || len(got.Sets) != len(want.Sets) {
					t.Fatalf("round %d: collection shape mismatch: got {%v %d %d sets}, want {%v %d %d sets}",
						round, got.Mode, got.Q, len(got.Sets), want.Mode, want.Q, len(want.Sets))
				}
				for i := range want.Sets {
					ws, gs := &want.Sets[i], &got.Sets[i]
					if gs.Name != ws.Name || len(gs.Elements) != len(ws.Elements) {
						t.Fatalf("round %d set %d: header mismatch", round, i)
					}
					for j := range ws.Elements {
						we, ge := &ws.Elements[j], &gs.Elements[j]
						wantEnt, gotEnt := want.Dir.Set(int32(i))[j], got.Dir.Set(int32(i))[j]
						if wantEnt.Key >= heldKeys {
							wantEnt.Key = NoKey
						}
						if ge.Raw != we.Raw || gotEnt != wantEnt {
							t.Errorf("round %d set %d elem %d: scalar mismatch: got {%q %+v}, want {%q %+v}",
								round, i, j, ge.Raw, gotEnt, we.Raw, wantEnt)
						}
						if !equalIDs(ge.Tokens, we.Tokens) {
							t.Errorf("round %d set %d elem %d: tokens %v, want %v", round, i, j, ge.Tokens, we.Tokens)
						}
						if gc, wc := gs.Chunks(j), ws.Chunks(j); !equalIDs(gc, wc) {
							t.Errorf("round %d set %d elem %d: chunks %v, want %v", round, i, j, gc, wc)
						}
						if tc.mode == ModeQGram {
							spec := tokens.InternAll(twin, tokens.QChunks(we.Raw, tc.q))
							if wc := ws.Chunks(j); !equalIDs(wc, spec) {
								t.Errorf("set %d elem %d: chunks %v, QChunks gives %v", i, j, wc, spec)
							}
						}
					}
					if tc.mode == ModeWord && (gs.ChunkIDs() != nil || ws.ChunkIDs() != nil || gs.Chunks(0) != nil) {
						t.Errorf("round %d set %d: word-mode set carries a chunk run", round, i)
					}
				}
			}
			if dict.Size() == twin.Size() {
				t.Fatal("the fixture's queries hold no novel token")
			}
		})
	}
}

// TestQueryScratchLooksUpNeverInterns pins that a query reads the
// dictionary and never writes it: a thousand builds of queries full of
// words, q-grams and elements the collection never held leave both the
// token table and the key table as the indexed build left them. Within
// one build a novel token keeps one id, distinct novel tokens get
// distinct ids from the dictionary's size up, counted afresh per build,
// and a build on a dictionary with freed slots lands on none of them.
func TestQueryScratchLooksUpNeverInterns(t *testing.T) {
	for _, tc := range []struct {
		mode TokenMode
		q    int
	}{{ModeWord, 0}, {ModeQGram, 2}} {
		dict, _ := queryScratchFixture(tc.mode, tc.q)
		// Free a slot on both tables: a novel token must not take it.
		gone := Build(dict, []RawSet{{Name: "gone", Elements: []string{"zzgone"}}}, tc.mode, tc.q)
		goneToks, goneKeys := gone.Used(nil)
		for _, marks := range [][]bool{goneToks, goneKeys} {
			for id := range marks {
				marks[id] = !marks[id]
			}
		}
		if dict.Reclaim(goneToks) == 0 || dict.Keys().Reclaim(goneKeys) == 0 {
			t.Fatalf("%v: no slot freed", tc.mode)
		}
		size, keys := dict.Size(), dict.Keys().Size()
		var qs QueryScratch
		for i := 0; i < 1000; i++ {
			novel := fmt.Sprintf("novel%d", i)
			c := qs.Build(dict, []RawSet{
				{Name: "N", Elements: []string{novel + " alpha", "alpha " + novel}},
				{Name: "M", Elements: []string{novel, "never seen before"}},
			}, tc.mode, tc.q)
			a, b := c.Sets[0].Elements, c.Sets[1].Elements
			if tc.mode == ModeWord && (!equalIDs(a[0].Tokens, a[1].Tokens) || !containsID(a[0].Tokens, b[0].Tokens[0])) {
				t.Fatalf("%v build %d: one novel word got different ids: %v, %v, %v", tc.mode, i, a[0].Tokens, a[1].Tokens, b[0].Tokens)
			}
			if tc.mode == ModeWord && b[0].Tokens[0] != tokens.ID(size) {
				t.Fatalf("build %d: the first novel word got id %d, want the dictionary's size %d", i, b[0].Tokens[0], size)
			}
			for si, s := range c.Sets {
				for j, el := range s.Elements {
					if key := c.Dir.Set(int32(si))[j].Key; key != NoKey {
						t.Fatalf("%v build %d: novel element %q got key %d", tc.mode, i, el.Raw, key)
					}
					for _, id := range el.Tokens {
						if int(id) < size && dict.String(id) == "" {
							t.Fatalf("%v build %d: token of %q landed on freed slot %d", tc.mode, i, el.Raw, id)
						}
					}
				}
			}
		}
		if dict.Size() != size || dict.Keys().Size() != keys {
			t.Errorf("%v: query builds grew the tables: tokens %d -> %d, keys %d -> %d",
				tc.mode, size, dict.Size(), keys, dict.Keys().Size())
		}
	}
}

// TestQueryScratchAllocGate pins that a warmed QueryScratch allocates
// nothing, under both modes, for content the collection holds and for
// tokens and keys it has never seen: a novel token's id comes from the
// scratch's own table, which the warm-up grew, and a novel key is NoKey.
func TestQueryScratchAllocGate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; budgets hold only in plain builds")
	}
	raws, _ := buildAllocCorpus()
	novel := make([]RawSet, 100)
	for i, rs := range raws[:len(novel)] {
		es := make([]string, len(rs.Elements))
		for j, e := range rs.Elements {
			es[j] = strings.ReplaceAll(e, "w", "x")
		}
		novel[i] = RawSet{Name: rs.Name, Elements: es}
	}
	for _, mode := range []TokenMode{ModeWord, ModeQGram} {
		q := 3
		dict := tokens.NewDictionary()
		Build(dict, raws, mode, q)
		for _, tc := range []struct {
			name  string
			query []RawSet
		}{{"indexed", raws[:100]}, {"novel", novel}} {
			var qs QueryScratch
			qs.Build(dict, tc.query, mode, q)
			if got := testing.AllocsPerRun(5, func() { qs.Build(dict, tc.query, mode, q) }); got != 0 {
				t.Errorf("%v %s: a warmed QueryScratch.Build allocates %.2f objects, want 0", mode, tc.name, got)
			}
		}
	}
}

func containsID(ids []tokens.ID, id tokens.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func equalIDs(a, b []tokens.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
