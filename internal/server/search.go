package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strconv"

	"silkmoth"
	"silkmoth/internal/lru"
)

// queryParams are a search's options as every search route spells them:
// fields of a POST or batch body by their json tags, GET /v1/explain
// parameters by their query tags (fromQuery; explain has none, that route
// always explaining). options validates them and
// lowers them to the library's query options, one field to one option.
type queryParams struct {
	// K, when ≥ 1, truncates the answer to its best k matches; /v1/topk
	// requires it.
	K int `json:"k,omitempty" query:"k"`
	// Scheme pins the signature scheme by its name ("dichotomy", "skyline",
	// "weighted", "combunweighted", "auto"); empty inherits the engine's.
	Scheme string `json:"scheme,omitempty" query:"scheme"`
	// Delta overrides the relatedness threshold δ ∈ (0, 1]; 0 inherits the
	// engine's.
	Delta float64 `json:"delta,omitempty" query:"delta"`
	// Explain attaches the query's execution metadata to its answer; it is
	// always on at /v1/explain. Explained answers bypass the result cache.
	Explain bool `json:"explain,omitempty"`
	// The Disable switches turn a pipeline stage off for this query only,
	// for what-if tuning (how many more candidates reach verification with
	// a filter off?). Matches never change, only the explained funnel does.
	// The NN filter implies the check filter, so DisableCheckFilter alone
	// changes nothing: it takes DisableNNFilter too.
	DisableCheckFilter bool `json:"disable_check_filter,omitempty" query:"no_check_filter"`
	DisableNNFilter    bool `json:"disable_nn_filter,omitempty" query:"no_nn_filter"`
}

// options validates p and lowers it to the library's query options; nil
// when p overrides nothing.
func (p *queryParams) options() ([]silkmoth.QueryOption, error) {
	var opts []silkmoth.QueryOption
	if p.K < 0 {
		return nil, errors.New("k must be >= 0")
	}
	if p.K > 0 {
		opts = append(opts, silkmoth.WithK(p.K))
	}
	if p.Scheme != "" {
		var sc silkmoth.Scheme
		if err := sc.UnmarshalText([]byte(p.Scheme)); err != nil {
			return nil, err
		}
		opts = append(opts, silkmoth.WithScheme(sc))
	}
	if p.Delta != 0 {
		if !(p.Delta > 0 && p.Delta <= 1) { // NaN fails too (?delta=NaN parses)
			return nil, fmt.Errorf("delta must be in (0, 1], got %g", p.Delta)
		}
		opts = append(opts, silkmoth.WithDelta(p.Delta))
	}
	if p.Explain {
		opts = append(opts, silkmoth.WithExplain(new(silkmoth.Explain)))
	}
	if p.DisableCheckFilter {
		opts = append(opts, silkmoth.WithCheckFilter(false))
	}
	if p.DisableNNFilter {
		opts = append(opts, silkmoth.WithNNFilter(false))
	}
	return opts, nil
}

// fromQuery fills p from the URL parameters its query tags name, each read
// by strconv (booleans as ParseBool reads them: 1, t, TRUE, 0, false …);
// an absent or empty parameter, or a field without a query tag, leaves the
// field alone.
func (p *queryParams) fromQuery(q url.Values) error {
	v := reflect.ValueOf(p).Elem()
	for i := range v.NumField() {
		name := v.Type().Field(i).Tag.Get("query")
		raw := q.Get(name)
		if name == "" || raw == "" {
			continue
		}
		var err error
		switch f := v.Field(i).Addr().Interface().(type) {
		case *int:
			*f, err = strconv.Atoi(raw)
		case *float64:
			*f, err = strconv.ParseFloat(raw, 64)
		case *bool:
			*f, err = strconv.ParseBool(raw)
		case *string:
			*f = raw
		}
		if err != nil {
			return fmt.Errorf("%s=%q: %w", name, raw, err)
		}
	}
	return nil
}

// searchRequest is the body of POST /v1/search, /v1/topk and /v1/explain:
// one query.
type searchRequest struct {
	Set SetJSON `json:"set"`
	queryParams
}

// batchSearchRequest is the body of POST /v1/search/batch: its options
// apply to every item.
type batchSearchRequest struct {
	Sets []SetJSON `json:"sets"`
	// Schemes, when present, must align positionally with Sets: each
	// non-empty entry pins that item's signature scheme over Scheme (an
	// empty string inherits Scheme, and so the engine's when that is empty,
	// including Auto's per-query choice). The response reports the concrete
	// scheme each item probed with.
	Schemes []string `json:"schemes,omitempty"`
	queryParams
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
	// queryParams are the item's options as its request spelled them: k,
	// scheme and delta key its cache entry, and explain keeps its answer
	// out of the cache. opts is their lowered form.
	queryParams
	opts []silkmoth.QueryOption
	// reportScheme puts the scheme the item probed with into its answer.
	reportScheme bool

	// keyLo:keyHi is the item's cache key in the request's key buffer.
	keyLo, keyHi int
	// from is the item whose engine query answers this one — the item itself
	// when it is the first of its key — and -1 for one answered in place.
	from int
	// body is the item's encoded answer.
	body []byte
}

// newItem validates p and makes set's search item under it.
func newItem(set SetJSON, p queryParams) (searchItem, error) {
	opts, err := p.options()
	return searchItem{set: set, queryParams: p, opts: opts}, err
}

// query lowers the item to the engine's batch item. Explained items, items
// that report their scheme, and every item while slow queries are captured
// carry an explain capture, which the Result hands back.
func (it *searchItem) query(capture bool) silkmoth.BatchQuery {
	bq := silkmoth.BatchQuery{Set: it.set.toSet(), Options: it.opts}
	if !it.Explain && (it.reportScheme || capture) {
		bq.Options = append(bq.Options, silkmoth.WithExplain(new(silkmoth.Explain)))
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
// the same options as query parameters for curl-friendly poking (handleOne).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if s.opts.DisableExplain {
		writeError(w, http.StatusNotFound, "explain is disabled on this server")
		return
	}
	s.handleOne(w, r, 0, true)
}

// handleOne decodes a one-query route's request — a searchRequest body, or
// on GET repeated e=<element> parameters, an optional name and the
// queryParams — into its one search item and serves it: k below minK is a
// 400, and explain forces the execution metadata on.
func (s *Server) handleOne(w http.ResponseWriter, r *http.Request, minK int, explain bool) {
	var req searchRequest
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.Set = SetJSON{Name: q.Get("name"), Elements: q["e"]}
		if err := req.fromQuery(q); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
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
	req.Explain = req.Explain || explain
	it, err := newItem(req.Set, req.queryParams)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
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
	if len(req.Sets) > maxBatchSize {
		writeError(w, http.StatusRequestEntityTooLarge, "batch is limited to %d sets, got %d", maxBatchSize, len(req.Sets))
		return
	}
	if req.Schemes != nil && len(req.Schemes) != len(req.Sets) {
		writeError(w, http.StatusBadRequest, "schemes must align with sets: %d schemes for %d sets",
			len(req.Schemes), len(req.Sets))
		return
	}
	items := make([]searchItem, len(req.Sets))
	for i, set := range req.Sets {
		p := req.queryParams
		if req.Schemes != nil && req.Schemes[i] != "" {
			p.Scheme = req.Schemes[i]
		}
		var err error
		if items[i], err = newItem(set, p); err != nil {
			// The error is the item's own scheme's when the request's
			// options pass without it.
			if _, reqErr := req.options(); p.Scheme != req.Scheme && reqErr == nil {
				err = fmt.Errorf("schemes[%d]: %w", i, err)
			}
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// An item reports its scheme exactly when the request sent schemes
		// or explain — so a nil array and one of empty strings key apart,
		// their bodies differing by the reported scheme.
		items[i].reportScheme = req.Schemes != nil || req.Explain
	}
	s.serveSearch(w, r, items, true)
}

// serveSearch answers a request's search items — one from /v1/search,
// /v1/topk or /v1/explain, many from /v1/search/batch — and is every search
// route's only way to the engine. Each item is a query of its own to the
// result cache, keyed ⟨set, k, reported scheme, δ⟩, so a plain batch item
// and the same /v1/search share an entry; explained items skip the cache,
// whose copy of their wall time would go stale, and are a 400 on a server
// with explain disabled. The engine runs once, as one batch, over the
// distinct items that missed — empty batch items are answered in place and
// never reach it — and only then does the request take a worker slot. Every
// answer is encoded once, as a BatchItemJSON: a single route's body is its
// item's, where an item's error is a 500 instead (only a corrupt index
// causes one); a batch's joins its items'.
func (s *Server) serveSearch(w http.ResponseWriter, r *http.Request, items []searchItem, batch bool) {
	kb := getBuf()
	defer putBuf(kb)
	for i := range items {
		it := &items[i]
		if it.Explain && s.opts.DisableExplain {
			writeError(w, http.StatusBadRequest, "explain is disabled on this server")
			return
		}
		it.keyLo = len(*kb)
		if len(it.set.Elements) > 0 {
			*kb = s.appendKey(*kb, "search", it.K, it.Scheme, it.reportScheme, it.Delta, it.set)
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
		explained = explained || it.Explain
		key := (*kb)[it.keyLo:it.keyHi]
		if !it.Explain {
			if body, ok := lru.GetBytes(s.cache, key); ok {
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
				if it.Explain {
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
			if !it.Explain && res.Err == nil {
				lru.PutBytes(s.cache, (*kb)[it.keyLo:it.keyHi], it.body)
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
