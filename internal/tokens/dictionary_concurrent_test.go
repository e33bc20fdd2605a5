package tokens

import (
	"fmt"
	"sync"
	"testing"
)

// TestDictionaryConcurrentIntern hammers one dictionary from many goroutines
// with overlapping token vocabularies, through both Intern and InternBytes.
// Run under -race this is the proof that parallel query-time tokenization
// no longer needs an external lock; every goroutine must get the same id
// for the same string.
func TestDictionaryConcurrentIntern(t *testing.T) {
	d := NewDictionary()
	// Pre-intern half the vocabulary so readers exercise the fast path.
	for i := 0; i < 50; i++ {
		d.Intern(fmt.Sprintf("tok%d", i))
	}

	const goroutines = 8
	const rounds = 500
	var wg sync.WaitGroup
	ids := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, 100)
			for r := 0; r < rounds; r++ {
				for i := 0; i < 100; i++ {
					tok := fmt.Sprintf("tok%d", i)
					var id ID
					if (g+r)%2 == 0 {
						id = d.Intern(tok)
					} else {
						id = d.InternBytes([]byte(tok))
					}
					if r == 0 {
						ids[g][i] = id
					} else if ids[g][i] != id {
						t.Errorf("goroutine %d: token %q id changed %d -> %d", g, tok, ids[g][i], id)
						return
					}
					if got, ok := d.Lookup(tok); !ok || got != id {
						t.Errorf("goroutine %d: Lookup(%q) = %d,%v want %d", g, tok, got, ok, id)
						return
					}
					if d.String(id) != tok {
						t.Errorf("goroutine %d: String(%d) = %q want %q", g, id, d.String(id), tok)
						return
					}
					_ = d.Size()
				}
			}
		}(g)
	}
	wg.Wait()

	// All goroutines must agree on every id.
	for g := 1; g < goroutines; g++ {
		for i := range ids[0] {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d disagrees on token %d: %d vs %d", g, i, ids[g][i], ids[0][i])
			}
		}
	}
	if d.Size() != 100 {
		t.Fatalf("Size = %d, want 100", d.Size())
	}
	// The agreed ids are the dense range [0, 100), one per token, and
	// each resolves back to its token.
	seen := make([]bool, 100)
	for i, id := range ids[0] {
		if id < 0 || id >= 100 || seen[id] {
			t.Fatalf("token %d got id %d: not a distinct id in [0, 100)", i, id)
		}
		seen[id] = true
		if tok := fmt.Sprintf("tok%d", i); d.String(id) != tok {
			t.Errorf("String(%d) = %q, want %q", id, d.String(id), tok)
		}
	}
}
