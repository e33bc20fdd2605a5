package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"silkmoth"
)

// TestCacheKeyHitAllocs pins that building a key into a reused buffer and
// probing the cache with it allocates nothing on a hit.
func TestCacheKeyHitAllocs(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	set := SetJSON{Elements: []string{"77 Mass Ave Boston MA", "5th St Seattle WA"}}
	s.cache.put(s.appendKey(nil, "search", -1, "skyline", true, 0.5, set), []byte(`{"matches":[]}`))
	buf := make([]byte, 0, 256)
	got := testing.AllocsPerRun(100, func() {
		buf = s.appendKey(buf[:0], "search", -1, "skyline", true, 0.5, set)
		if _, ok := s.cache.get(buf); !ok {
			t.Fatal("key built twice misses")
		}
	})
	if got != 0 {
		t.Fatalf("key build + hit lookup allocates %v times, want 0", got)
	}
}

// TestBatchItemsShareCache pins the unit of the result cache: one query's
// answer. A batch runs the engine only for its distinct misses, and what
// it stored answers later singles and batches.
func TestBatchItemsShareCache(t *testing.T) {
	a := `{"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}`
	b := `{"elements": ["red bicycle", "blue kettle"]}`
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, _ := newShardedTestServer(t, shards, Options{})
			stats := func() statsResponse { return decode[statsResponse](t, get(t, s, "/v1/stats")) }

			w := postJSON(t, s, "/v1/search/batch", `{"sets": [`+a+`,`+b+`,`+a+`]}`)
			if w.Code != http.StatusOK || w.Header().Get("X-Silkmoth-Cache") != "miss" {
				t.Fatalf("cold batch: code %d cache %q", w.Code, w.Header().Get("X-Silkmoth-Cache"))
			}
			resp := decode[batchSearchResponse](t, w)
			st := stats()
			if st.Engine.SearchPasses != 2 {
				t.Fatalf("[a, b, a] ran %d passes, want 2 (two distinct items)", st.Engine.SearchPasses)
			}
			if st.Cache.Misses != 3 || st.Cache.Hits != 0 {
				t.Fatalf("cache = %+v, want 3 misses 0 hits", st.Cache)
			}
			if len(resp.Results[0].Matches) == 0 {
				t.Fatal("item a matches nothing; the fixture is wrong")
			}

			w = postJSON(t, s, "/v1/search", `{"set": `+a+`}`)
			if got := w.Header().Get("X-Silkmoth-Cache"); got != "hit" {
				t.Fatalf("single after batch: cache %q, want hit", got)
			}
			want, _ := json.Marshal(BatchItemJSON{Matches: resp.Results[0].Matches})
			if got := bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
				t.Fatalf("single served from a batch item:\n got %s\nwant %s", got, want)
			}

			w = postJSON(t, s, "/v1/search/batch", `{"sets": [`+b+`,`+a+`]}`)
			if got := w.Header().Get("X-Silkmoth-Cache"); got != "hit" {
				t.Fatalf("[b, a] after [a, b, a]: cache %q, want hit", got)
			}
			st = stats()
			if st.Engine.SearchPasses != 2 {
				t.Fatalf("hits ran the engine: %d passes, want 2", st.Engine.SearchPasses)
			}
			if st.Cache.Misses != 3 || st.Cache.Hits != 3 {
				t.Fatalf("cache = %+v, want 3 misses 3 hits", st.Cache)
			}

			// One new item: the batch misses, and runs the engine for it alone.
			c := `{"elements": ["purple submarine"]}`
			w = postJSON(t, s, "/v1/search/batch", `{"sets": [`+a+`,`+c+`]}`)
			if got := w.Header().Get("X-Silkmoth-Cache"); got != "miss" {
				t.Fatalf("[a, c]: cache %q, want miss", got)
			}
			if st = stats(); st.Engine.SearchPasses != 3 {
				t.Fatalf("[a, c] ran %d passes in all, want 3", st.Engine.SearchPasses)
			}
		})
	}
}

// TestConcurrentBatchesShareCache runs overlapping batches and singles from
// several goroutines, with generation bumps from adds that never match, and
// requires every body to be the one a lone request gets: pooled key and body
// buffers and shared cache entries must never leak between requests.
func TestConcurrentBatchesShareCache(t *testing.T) {
	s, _ := newShardedTestServer(t, 2, Options{MaxInFlight: 3})
	sets := []string{
		`{"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}`,
		`{"elements": ["red bicycle", "blue kettle"]}`,
		`{"elements": ["Michigan Ave Chicago IL", "5th St Seattle WA"]}`,
	}
	cold, _ := newShardedTestServer(t, 2, Options{CacheSize: -1})
	want := make([]string, len(sets))
	for i, set := range sets {
		want[i] = strings.TrimSuffix(postJSON(t, cold, "/v1/search", `{"set": `+set+`}`).Body.String(), "\n")
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				order := []int{(g + r) % 3, (g + 2*r) % 3, g % 3}
				w := httptest.NewRecorder()
				if g == 5 && r%4 == 0 {
					add := fmt.Sprintf(`{"sets": [{"name": "x%d", "elements": ["zz%dqq ww%d"]}]}`, r, r, r)
					s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sets", strings.NewReader(add)))
					continue
				}
				if r%3 == 0 {
					s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(`{"set": `+sets[order[0]]+`}`)))
					if got := strings.TrimSuffix(w.Body.String(), "\n"); got != want[order[0]] {
						t.Errorf("single %d: %s, want %s", order[0], got, want[order[0]])
					}
					continue
				}
				body := `{"sets": [` + sets[order[0]] + `,` + sets[order[1]] + `,` + sets[order[2]] + `]}`
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/search/batch", strings.NewReader(body)))
				exp := `{"results":[` + want[order[0]] + `,` + want[order[1]] + `,` + want[order[2]] + `]}`
				if got := strings.TrimSuffix(w.Body.String(), "\n"); got != exp {
					t.Errorf("batch %v: %s, want %s", order, got, exp)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTopKHugeKOverHTTP pins that a caller's k reaches a sharded engine
// without sizing an allocation: the merge once made a k-capacity slice,
// and net/http dropped the connection on the panic.
func TestTopKHugeKOverHTTP(t *testing.T) {
	s, _ := newShardedTestServer(t, 2, Options{})
	set := `{"elements": ["77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"]}`
	w := postJSON(t, s, "/v1/topk", `{"set": `+set+`, "k": 4611686018427387904}`)
	if w.Code != http.StatusOK {
		t.Fatalf("topk k=1<<62: code %d: %s", w.Code, w.Body)
	}
	all := postJSON(t, s, "/v1/search", `{"set": `+set+`}`)
	if !bytes.Equal(w.Body.Bytes(), all.Body.Bytes()) {
		t.Fatalf("top-(1<<62) differs from the full search:\n%s\n%s", w.Body, all.Body)
	}
	if w := get(t, s, "/v1/explain?e=77+Mass+Ave+Boston+MA&k=4611686018427387904"); w.Code != http.StatusOK {
		t.Fatalf("explain k=1<<62: code %d: %s", w.Code, w.Body)
	}
}

// wallRE matches the fields of an explained response that differ between
// two runs of the same query — its wall times, elapsed_us and stage_ns's
// and helper_ns's nanoseconds — and simRE the two whose split does when a
// pass runs in chunks: each chunk's worker has its own memo, so which
// requests it answered depends on how the pass was cut, their sum does not.
var (
	wallRE = regexp.MustCompile(`"(elapsed_us|signature|collect|refine|verify|helper_ns)":-?\d+`)
	simRE  = regexp.MustCompile(`"sim_evals":(\d+),"sim_memo_hits":(\d+)`)
)

// sameRun rewrites an explained body so that two runs of one query compare
// equal: wall times zeroed, kernel calls and memo hits summed.
func sameRun(body []byte) []byte {
	body = wallRE.ReplaceAll(body, []byte(`"$1":0`))
	return simRE.ReplaceAllFunc(body, func(m []byte) []byte {
		g := simRE.FindSubmatch(m)
		evals, _ := strconv.Atoi(string(g[1]))
		hits, _ := strconv.Atoi(string(g[2]))
		return []byte(fmt.Sprintf(`"sim_requests":%d`, evals+hits))
	})
}

// TestCacheDifferential runs one seeded request stream against a server
// with the default cache and a twin without one: every status code and
// body must be identical, explained bodies up to sameRun. The
// stream repeats sets so the cached twin hits, both within and across
// requests, and mutates the collection between reads.
func TestCacheDifferential(t *testing.T) {
	pool := [][]string{
		{"77 Mass Ave Boston MA", "5th St Seattle WA", "State St Chicago IL"},
		{"77 Mass Ave Boston MA", "5th St Seattle WA"},
		{"77 Mass Ave Boston MA"},
		{"Michigan Ave Chicago IL", "State St Chicago IL", "5th St Seattle WA"},
		{"red bicycle", "blue kettle"},
		{"red bicycle", "blue kettle", "green lamp"},
		{"purple submarine"},
	}
	schemes := []string{"", "skyline", "dichotomy", "weighted", "combunweighted", "auto"}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cached, _ := newShardedTestServer(t, shards, Options{})
			cold, _ := newShardedTestServer(t, shards, Options{CacheSize: -1})
			rng := rand.New(rand.NewSource(int64(7 + shards)))
			set := func() SetJSON { return SetJSON{Elements: pool[rng.Intn(len(pool))]} }
			nextID := len(testSets())
			hits := 0
			for step := 0; step < 600; step++ {
				method, path := http.MethodPost, "/v1/search"
				var req any
				switch p := rng.Intn(100); {
				case p < 35:
					sr := searchRequest{Set: set()}
					if rng.Intn(6) == 0 {
						sr.Scheme = schemes[rng.Intn(len(schemes))]
					}
					if rng.Intn(8) == 0 {
						sr.Delta = []float64{0.3, 0.5, 0.9}[rng.Intn(3)]
					}
					sr.Explain = rng.Intn(10) == 0
					req = sr
				case p < 45:
					path = "/v1/topk"
					req = searchRequest{Set: set(), K: []int{1, 2, 3, 1 << 40}[rng.Intn(4)]}
				case p < 90:
					path = "/v1/search/batch"
					br := batchSearchRequest{K: []int{0, 1, 3}[rng.Intn(3)], Explain: rng.Intn(8) == 0}
					for n := 1 + rng.Intn(6); len(br.Sets) < n; {
						if rng.Intn(10) == 0 {
							br.Sets = append(br.Sets, SetJSON{Elements: []string{}})
						} else {
							br.Sets = append(br.Sets, set())
						}
					}
					switch rng.Intn(3) {
					case 1:
						br.Schemes = make([]string, len(br.Sets))
					case 2:
						for range br.Sets {
							br.Schemes = append(br.Schemes, schemes[rng.Intn(len(schemes))])
						}
					}
					req = br
				case p < 94:
					path = "/v1/sets"
					req = addSetsRequest{Sets: []SetJSON{{Name: fmt.Sprintf("added-%d", step), Elements: set().Elements}}}
					nextID++
				case p < 97:
					method, path = http.MethodPut, fmt.Sprintf("/v1/sets/%d", rng.Intn(nextID))
					req = updateSetRequest{Set: SetJSON{Name: fmt.Sprintf("updated-%d", step), Elements: set().Elements}}
				default:
					method, path = http.MethodDelete, fmt.Sprintf("/v1/sets/%d", rng.Intn(nextID))
				}
				var body []byte
				if req != nil {
					var err error
					if body, err = json.Marshal(req); err != nil {
						t.Fatal(err)
					}
				}
				do := func(s *Server) *httptest.ResponseRecorder {
					r := httptest.NewRequest(method, path, bytes.NewReader(body))
					w := httptest.NewRecorder()
					s.ServeHTTP(w, r)
					return w
				}
				got, want := do(cached), do(cold)
				if got.Header().Get("X-Silkmoth-Cache") == "hit" {
					hits++
				}
				gb, wb := sameRun(got.Body.Bytes()), sameRun(want.Body.Bytes())
				if got.Code != want.Code || !bytes.Equal(gb, wb) {
					t.Fatalf("step %d: %s %s %s\ncached: %d %s\n  cold: %d %s",
						step, method, path, body, got.Code, gb, want.Code, wb)
				}
				if method == http.MethodPut && got.Code == http.StatusOK {
					nextID = decode[updateSetResponse](t, got).ID + 1
				}
			}
			if hits == 0 {
				t.Fatal("the stream never hit the cache: it tests nothing")
			}
		})
	}
}

// FuzzBatchBodyMatchesMarshal pins the batch response assembly: items
// encoded one by one and joined by appendBatchBody are byte for byte
// json.Marshal of the whole response, and a plain item is byte for byte a
// /v1/search body — the identity that lets the two share cache entries.
func FuzzBatchBodyMatchesMarshal(f *testing.F) {
	f.Add(uint8(3), "locations", 0.5, 1.0, 7, "", "", uint8(0))
	f.Add(uint8(2), "naïve <&>   ☃", math.MaxFloat64, -0.0, -1, "posting decode: corrupt", "skyline", uint8(0xff))
	f.Add(uint8(5), "\x00\"\\", math.SmallestNonzeroFloat64, 1e-300, math.MaxInt, "elements must be non-empty", "auto", uint8(0x5a))
	f.Fuzz(func(t *testing.T, n uint8, name string, rel, score float64, index int, errMsg, scheme string, mask uint8) {
		if math.IsNaN(rel) || math.IsInf(rel, 0) || math.IsNaN(score) || math.IsInf(score, 0) {
			t.Skip("JSON has no encoding for non-finite numbers")
		}
		items := make([]BatchItemJSON, int(n%9))
		encoded := make([][]byte, len(items))
		for i := range items {
			bit := func(b int) bool { return mask>>((i+b)%8)&1 == 1 }
			item := BatchItemJSON{Matches: []MatchJSON{}}
			for j := 0; j < i%4; j++ {
				item.Matches = append(item.Matches, MatchJSON{
					Index: index + j, Name: name[:len(name)*j/4],
					Relatedness: rel / float64(j+1), MatchingScore: score * float64(j),
				})
			}
			if bit(0) {
				item.Error = errMsg
			}
			if bit(1) {
				item.Scheme = scheme
			}
			if bit(2) {
				item.Explain = &ExplainJSON{Scheme: scheme, Schemes: map[string]int64{scheme: int64(i), name: 1},
					Funnel: silkmoth.Funnel{Candidates: int64(index)}, ElapsedUS: int64(n)}
			}
			items[i] = item
			var err error
			if encoded[i], err = json.Marshal(item); err != nil {
				t.Fatal(err)
			}
			if item.Error == "" && item.Scheme == "" && item.Explain == nil {
				single, err := json.Marshal(BatchItemJSON{Matches: item.Matches})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encoded[i], single) {
					t.Fatalf("plain item %s != search body %s", encoded[i], single)
				}
			}
		}
		want, err := json.Marshal(batchSearchResponse{Results: items})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendBatchBody(nil, encoded); !bytes.Equal(got, want) {
			t.Fatalf("assembled body\n %s\n!= marshaled\n %s", got, want)
		}
	})
}
