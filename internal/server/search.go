package server

import (
	"encoding/json"
	"net/http"

	"silkmoth"
)

// searchRequest is the body of POST /v1/search, /v1/topk and /v1/explain:
// one query.
type searchRequest struct {
	Set SetJSON `json:"set"`
	// K, when ≥ 1, truncates the answer to its best k matches; /v1/topk
	// requires it.
	K int `json:"k,omitempty"`
	// Scheme pins this query's signature scheme ("dichotomy", "skyline",
	// "weighted", "combunweighted", "auto"); empty inherits the engine's.
	Scheme string `json:"scheme,omitempty"`
	// Delta overrides the relatedness threshold δ ∈ (0, 1] for this query;
	// 0 inherits the engine's.
	Delta float64 `json:"delta,omitempty"`
	// Explain attaches the query's execution metadata to the response; it
	// is always on at /v1/explain. Explained responses bypass the result
	// cache.
	Explain bool `json:"explain,omitempty"`
	// DisableCheckFilter / DisableNNFilter turn pipeline stages off for
	// this query only, for what-if tuning (how many more candidates reach
	// verification with a filter off?). Matches never change — only the
	// explained funnel does. The NN filter implies the check filter, so
	// DisableCheckFilter alone changes nothing: it takes DisableNNFilter
	// too.
	DisableCheckFilter bool `json:"disable_check_filter,omitempty"`
	DisableNNFilter    bool `json:"disable_nn_filter,omitempty"`
}

type batchSearchRequest struct {
	Sets []SetJSON `json:"sets"`
	// K, when ≥ 1, truncates each item's matches to its top k.
	K int `json:"k,omitempty"`
	// Schemes, when present, must align positionally with Sets: each
	// non-empty entry pins that item's signature scheme (an empty string
	// inherits the engine's, including Auto's per-query choice). The
	// response reports the concrete scheme each item probed with.
	Schemes []string `json:"schemes,omitempty"`
	// Explain attaches per-item execution metadata to every result.
	// Explained responses bypass the result cache.
	Explain bool `json:"explain,omitempty"`
}

// BatchItemJSON is one search's answer on the wire: its matches, or an error
// (an empty batch item, a corrupt posting container met while answering it)
// that left the rest of its batch unaffected. When the request pinned
// schemes or asked for explain, Scheme carries the concrete signature scheme
// the item's passes probed with. It is a batch's item and a single search
// route's whole body alike; the single routes never report a scheme, and
// answer an error with a status instead.
type BatchItemJSON struct {
	Matches []MatchJSON  `json:"matches"`
	Scheme  string       `json:"scheme,omitempty"`
	Explain *ExplainJSON `json:"explain,omitempty"`
	Error   string       `json:"error,omitempty"`
}

type batchSearchResponse struct {
	Results []BatchItemJSON `json:"results"`
}

// emptyItem is the encoded answer to a batch item with no elements: an
// error in place, with empty (not null) matches so the wire shape is uniform
// across rejected and matchless items. (Marshal cannot fail on it: no
// floats, no maps.)
var emptyItem, _ = json.Marshal(BatchItemJSON{Matches: []MatchJSON{}, Error: "elements must be non-empty"})

// appendBatchBody appends {"results":[…]} assembled from encoded items to b:
// byte for byte json.Marshal(batchSearchResponse{…}) of the decoded items.
func appendBatchBody(b []byte, items [][]byte) []byte {
	b = append(b, `{"results":[`...)
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, it...)
	}
	return append(b, "]}"...)
}

// searchItem is one search, whichever route brought it, plus what
// serveSearch learns about it while answering.
type searchItem struct {
	set SetJSON
	// k ≥ 1 keeps the best k matches; 0 keeps them all.
	k int
	// scheme is the pinned signature scheme as the request named it ("" for
	// the engine's), pin its parsed form.
	scheme string
	pin    silkmoth.Scheme
	// delta overrides δ; 0 inherits the engine's.
	delta float64
	// reportScheme puts the scheme the item probed with into its answer;
	// explain puts its execution metadata there, which keeps the answer out
	// of the cache.
	reportScheme, explain bool
	noCheck, noNN         bool

	// keyLo:keyHi is the item's cache key in the request's key buffer.
	keyLo, keyHi int
	// from is the item whose engine query answers this one — the item itself
	// when it is the first of its key — and -1 for one answered in place.
	from int
	// body is the item's encoded answer.
	body []byte
}

// query lowers the item to the engine's batch item. Explained items, items
// that report their scheme, and every item while slow queries are captured
// carry an explain capture, which the Result hands back.
func (it *searchItem) query(capture bool) silkmoth.BatchQuery {
	bq := silkmoth.BatchQuery{Set: it.set.toSet()}
	if it.explain || it.reportScheme || capture {
		bq.Options = append(bq.Options, silkmoth.WithExplain(new(silkmoth.Explain)))
	}
	if it.scheme != "" {
		bq.Options = append(bq.Options, silkmoth.WithScheme(it.pin))
	}
	if it.k > 0 {
		bq.Options = append(bq.Options, silkmoth.WithK(it.k))
	}
	if it.delta != 0 {
		bq.Options = append(bq.Options, silkmoth.WithDelta(it.delta))
	}
	if it.noCheck {
		bq.Options = append(bq.Options, silkmoth.WithCheckFilter(false))
	}
	if it.noNN {
		bq.Options = append(bq.Options, silkmoth.WithNNFilter(false))
	}
	return bq
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.handleOne(w, r, 0, false)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.handleOne(w, r, 1, false)
}

// handleExplain serves GET/POST /v1/explain: one search whose answer
// carries the plan's execution metadata — chosen concrete scheme, signature
// token count, per-stage survivor counts, wall time — making filter and
// scheme tuning self-service. POST takes a searchRequest body; GET takes
// query parameters for curl-friendly poking (parseExplainQuery).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if s.opts.DisableExplain {
		writeError(w, http.StatusNotFound, "explain is disabled on this server")
		return
	}
	s.handleOne(w, r, 0, true)
}

// handleOne decodes a one-query route's request into its one search item
// and serves it: k below minK is a 400, and explain forces the execution
// metadata on.
func (s *Server) handleOne(w http.ResponseWriter, r *http.Request, minK int, explain bool) {
	var req searchRequest
	if r.Method == http.MethodGet {
		if !parseExplainQuery(w, r, &req) {
			return
		}
	} else if err := s.decodeBody(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.Set.Elements) == 0 {
		hint := ""
		if explain {
			hint = " (GET: repeated e= parameters)"
		}
		writeError(w, http.StatusBadRequest, "set.elements must be non-empty%s", hint)
		return
	}
	if req.K < minK {
		writeError(w, http.StatusBadRequest, "k must be >= %d", minK)
		return
	}
	it := searchItem{
		set: req.Set, k: req.K, delta: req.Delta, explain: explain || req.Explain,
		noCheck: req.DisableCheckFilter, noNN: req.DisableNNFilter,
	}
	if req.Scheme != "" {
		sc, err := silkmoth.ParseScheme(req.Scheme)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		it.scheme, it.pin = req.Scheme, sc
	}
	if req.Delta != 0 && !(req.Delta > 0 && req.Delta <= 1) { // NaN fails too (?delta=NaN parses)
		writeError(w, http.StatusBadRequest, "delta must be in (0, 1], got %g", req.Delta)
		return
	}
	if it.explain && s.opts.DisableExplain {
		writeError(w, http.StatusBadRequest, "explain is disabled on this server")
		return
	}
	s.serveSearch(w, r, []searchItem{it}, false)
}

// handleSearchBatch decodes many searches in one request, one result per
// request set, positionally aligned, and serves them.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req batchSearchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.Sets) == 0 {
		writeError(w, http.StatusBadRequest, "sets must be non-empty")
		return
	}
	if max := s.opts.MaxBatchSize; max > 0 && len(req.Sets) > max {
		writeError(w, http.StatusRequestEntityTooLarge, "batch is limited to %d sets, got %d", max, len(req.Sets))
		return
	}
	if req.K < 0 {
		writeError(w, http.StatusBadRequest, "k must be >= 0")
		return
	}
	if req.Schemes != nil && len(req.Schemes) != len(req.Sets) {
		writeError(w, http.StatusBadRequest, "schemes must align with sets: %d schemes for %d sets",
			len(req.Schemes), len(req.Sets))
		return
	}
	items := make([]searchItem, len(req.Sets))
	for i, set := range req.Sets {
		// An item reports its scheme exactly when the request sent schemes
		// or explain — so a nil array and one of empty strings key apart,
		// their bodies differing by the reported scheme.
		items[i] = searchItem{set: set, k: req.K, reportScheme: req.Schemes != nil || req.Explain, explain: req.Explain}
		if req.Schemes == nil || req.Schemes[i] == "" {
			continue
		}
		sc, err := silkmoth.ParseScheme(req.Schemes[i])
		if err != nil {
			writeError(w, http.StatusBadRequest, "schemes[%d]: %v", i, err)
			return
		}
		items[i].scheme, items[i].pin = req.Schemes[i], sc
	}
	if req.Explain && s.opts.DisableExplain {
		writeError(w, http.StatusBadRequest, "explain is disabled on this server")
		return
	}
	s.serveSearch(w, r, items, true)
}

// serveSearch answers a request's search items — one from /v1/search,
// /v1/topk or /v1/explain, many from /v1/search/batch — and is every search
// route's only way to the engine. Each item is a query of its own to the
// result cache, keyed ⟨set, k, reported scheme, δ⟩, so a plain batch item
// and the same /v1/search share an entry; explained items skip the cache,
// whose copy of their wall time would go stale. The engine runs once, as one
// batch, over the distinct items that missed — empty batch items are
// answered in place and never reach it — and only then does the request take
// a worker slot. Every answer is encoded once, as a BatchItemJSON: a single
// route's body is its item's, where an item's error is a 500 instead (only a
// corrupt index causes one); a batch's joins its items'.
func (s *Server) serveSearch(w http.ResponseWriter, r *http.Request, items []searchItem, batch bool) {
	kb := getBuf()
	defer putBuf(kb)
	for i := range items {
		it := &items[i]
		it.keyLo = len(*kb)
		if len(it.set.Elements) > 0 {
			*kb = s.appendKey(*kb, "search", it.k, it.scheme, it.reportScheme, it.delta, it.set)
		}
		it.keyHi = len(*kb)
	}

	// Answer what the cache holds; the misses, deduplicated by key, become
	// the engine's queries, in item order.
	capture := s.captureSlow()
	var (
		queries  []silkmoth.BatchQuery
		distinct map[string]int // key → the item that runs it
	)
	hits, misses, explained := 0, 0, false
	for i := range items {
		it := &items[i]
		it.from = -1
		if len(it.set.Elements) == 0 {
			it.body = emptyItem
			continue
		}
		explained = explained || it.explain
		key := (*kb)[it.keyLo:it.keyHi]
		if !it.explain {
			if body, ok := s.cache.get(key); ok {
				s.met.cacheHit()
				hits++
				it.body = body
				continue
			}
			s.met.cacheMiss()
			misses++
		}
		if j, ok := distinct[string(key)]; ok {
			it.from = j
			continue
		}
		if len(items) > 1 {
			if distinct == nil {
				distinct = make(map[string]int)
			}
			distinct[string(key)] = i
		}
		it.from = i
		queries = append(queries, it.query(capture))
	}

	if len(queries) > 0 {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		if !s.acquire(ctx, w) {
			return
		}
		defer s.release()
		results, err := s.eng.SearchBatchQueriesContext(ctx, queries)
		if err != nil {
			s.writeQueryErr(w, err)
			return
		}
		route := metricPath(r.URL.Path)
		qi := 0
		for i := range items {
			it := &items[i]
			if it.from != i {
				continue
			}
			res := &results[qi]
			qi++
			if !batch && res.Err != nil {
				s.writeQueryErr(w, res.Err)
				return
			}
			item := BatchItemJSON{Matches: matchesJSON(res.Matches)}
			if res.Err != nil {
				item.Error = res.Err.Error()
			}
			if ex := res.Explain; ex != nil {
				if it.reportScheme {
					item.Scheme = ex.Scheme
				}
				if it.explain {
					item.Explain = explainJSON(ex)
				}
				at := -1
				if batch {
					at = i
				}
				s.logSlow(r, route, ex, at)
			}
			if it.body, err = json.Marshal(item); err != nil {
				writeError(w, http.StatusInternalServerError, "internal: encoding response")
				return
			}
			// An item that met a corrupt index is not an answer to keep.
			if !it.explain && res.Err == nil {
				s.cache.put((*kb)[it.keyLo:it.keyHi], it.body)
			}
		}
		for i := range items {
			if j := items[i].from; j >= 0 {
				items[i].body = items[j].body
			}
		}
	}

	if !explained {
		outcome := "miss"
		if misses == 0 && hits > 0 {
			outcome = "hit"
		}
		w.Header().Set("X-Silkmoth-Cache", outcome)
	}
	if !batch {
		writeJSONBytes(w, http.StatusOK, items[0].body)
		return
	}
	bodies := make([][]byte, len(items))
	for i := range items {
		bodies[i] = items[i].body
	}
	// The keys are spent: the same buffer assembles the body.
	*kb = appendBatchBody((*kb)[:0], bodies)
	writeJSONBytes(w, http.StatusOK, *kb)
}
