package dataset

import (
	"fmt"
	"testing"

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

// TestQueryScratchMatchesBuildQuery pins the scratch query builder to
// BuildQuery element by element: same raws, tokens, chunks, lengths, and
// keys, in both token modes — including key lookups resolving for indexed
// content and NoKey for novel content — and across scratch reuse, where a
// second Build on the same scratch must not corrupt what the equivalence
// checks see during the build that produced them. Each element's chunks
// are also checked against QChunks itself, and word-mode sets must carry
// no chunk run at all.
func TestQueryScratchMatchesBuildQuery(t *testing.T) {
	for _, tc := range []struct {
		mode TokenMode
		q    int
	}{{ModeWord, 0}, {ModeQGram, 2}, {ModeQGram, 3}} {
		t.Run(fmt.Sprintf("%v_q%d", tc.mode, tc.q), func(t *testing.T) {
			dict, queries := queryScratchFixture(tc.mode, tc.q)
			want := BuildQuery(dict, queries, tc.mode, tc.q)
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
						if ge.Raw != we.Raw || ge.Length != we.Length || ge.Key != we.Key {
							t.Errorf("round %d set %d elem %d: scalar mismatch: got {%q %d %d}, want {%q %d %d}",
								round, i, j, ge.Raw, ge.Length, ge.Key, we.Raw, we.Length, we.Key)
						}
						if !equalIDs(ge.Tokens, we.Tokens) {
							t.Errorf("round %d set %d elem %d: tokens %v, want %v", round, i, j, ge.Tokens, we.Tokens)
						}
						if gc, wc := gs.Chunks(j), ws.Chunks(j); !equalIDs(gc, wc) {
							t.Errorf("round %d set %d elem %d: chunks %v, want %v", round, i, j, gc, wc)
						}
						if tc.mode == ModeQGram {
							spec := tokens.InternAll(dict, tokens.QChunks(we.Raw, tc.q))
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
		})
	}
}

// TestQueryScratchLooksUpNeverInterns pins BuildQuery's key contract on the
// scratch path: building queries full of novel elements must not grow the
// key table.
func TestQueryScratchLooksUpNeverInterns(t *testing.T) {
	for _, tc := range []struct {
		mode TokenMode
		q    int
	}{{ModeWord, 0}, {ModeQGram, 2}} {
		dict, _ := queryScratchFixture(tc.mode, tc.q)
		before := dict.Keys().Size()
		var qs QueryScratch
		qs.Build(dict, []RawSet{
			{Name: "N", Elements: []string{"never seen before", "another novel one"}},
		}, tc.mode, tc.q)
		if after := dict.Keys().Size(); after != before {
			t.Errorf("%v: query build grew the key table %d -> %d", tc.mode, before, after)
		}
	}
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
