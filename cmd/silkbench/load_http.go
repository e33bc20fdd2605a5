package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strings"
	"time"

	"silkmoth"
	"silkmoth/internal/server"
)

// sampleEvery is the stride at which serve_search keeps a response body
// for comparison with the library's answer after the round.
const sampleEvery = 64

// serving is the engine behind the real handler on a loopback listener,
// mounted the way cmd/silkmothd mounts it.
type serving struct {
	srv  *http.Server
	done chan error
	base string
}

func startServing(eng *silkmoth.Engine, cfg silkmoth.Config, opts server.Options) (*serving, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serving{
		srv:  &http.Server{Handler: server.New(eng, cfg, opts)},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (s *serving) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is one closed-loop caller on its own keep-alive connection: it
// sends its next request only after it has read the previous reply.
type client struct {
	hc   *http.Client
	base string
	body bytes.Buffer // request body under construction
	resp bytes.Buffer // last response body
}

func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		base: base,
	}
}

// do sends c.body and reads the reply into c.resp, returning the status.
func (c *client) do(ctx context.Context, method, path string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(c.body.Bytes()))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(res.Body)
	res.Body.Close()
	return res.StatusCode, err
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// searchBody fills c.body with a /v1/search request for one set fragment.
func (c *client) searchBody(frag []byte) {
	c.body.Reset()
	c.body.WriteString(`{"set":`)
	c.body.Write(frag)
	c.body.WriteByte('}')
}

// setFragments encodes every set's elements once, as the JSON object the
// search and batch request bodies embed.
func setFragments(sets []silkmoth.Set) ([][]byte, error) {
	frags := make([][]byte, len(sets))
	for i, s := range sets {
		b, err := json.Marshal(server.SetJSON{Elements: s.Elements})
		if err != nil {
			return nil, err
		}
		frags[i] = b
	}
	return frags, nil
}

// sampled is one kept response with the query sets that produced it.
type sampled struct {
	sets []int
	body []byte
}

func sameMatches(got []server.MatchJSON, want []silkmoth.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i, m := range want {
		g := got[i]
		if g.Index != m.Index || g.Name != m.Name || g.Relatedness != m.Relatedness || g.MatchingScore != m.MatchingScore {
			return false
		}
	}
	return true
}

// httpSlice is the number of requests between two readings of the reference
// kernel: some 30 ms of traffic.
const httpSlice = 200

// serveSearchLoad is serve_search: Zipf-popular reads, a tenth of them
// batches, against a warm result cache, perRound requests a round from one
// closed-loop client.
type serveSearchLoad struct {
	eng      *silkmoth.Engine
	sets     []silkmoth.Set
	frags    [][]byte
	perm     []int // popularity rank → set index
	sv       *serving
	cli      *client
	perRound int
	// uniform draws query sets uniformly instead; the traced replay uses
	// it for the workloads whose own queries are not skewed.
	uniform bool
	o       options
}

func newServeSearchLoad(b built, sets []silkmoth.Set, o options, perRound int, uniform bool) (*serveSearchLoad, error) {
	frags, err := setFragments(sets)
	if err != nil {
		return nil, err
	}
	sv, err := startServing(b.eng, b.cfg, server.Options{})
	if err != nil {
		return nil, err
	}
	return &serveSearchLoad{
		eng:      b.eng,
		sets:     sets,
		frags:    frags,
		perm:     rand.New(rand.NewSource(o.seed)).Perm(len(sets)),
		sv:       sv,
		cli:      newClient(sv.base),
		perRound: perRound,
		uniform:  uniform,
		o:        o,
	}, nil
}

// script draws the requests of one round: each is the list of query sets,
// one for /v1/search and batchSize for /v1/search/batch.
func (l *serveSearchLoad) script(round int) [][]int {
	rng := rand.New(rand.NewSource(l.o.seed*1000003 + int64(round)*1009))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(l.sets)-1))
	reqs := make([][]int, l.perRound)
	for i := range reqs {
		n := 1
		if rng.Float64() < batchShare {
			n = batchSize
		}
		q := make([]int, n)
		for j := range q {
			if l.uniform {
				q[j] = rng.Intn(len(l.sets))
			} else {
				q[j] = l.perm[zipf.Uint64()]
			}
		}
		reqs[i] = q
	}
	return reqs
}

func (l *serveSearchLoad) round(ctx context.Context, n int) roundResult {
	reqs := l.script(n)
	c := l.cli
	s := slicer{rr: roundResult{queryNs: make([]int64, 0, len(reqs))}}
	var samples []sampled
	s.begin()
	for i, q := range reqs {
		if i > 0 && i%httpSlice == 0 {
			s.cut()
		}
		path := "/v1/search"
		if len(q) == 1 {
			c.searchBody(l.frags[q[0]])
		} else {
			path = "/v1/search/batch"
			c.body.Reset()
			c.body.WriteString(`{"sets":[`)
			for j, s := range q {
				if j > 0 {
					c.body.WriteByte(',')
				}
				c.body.Write(l.frags[s])
			}
			c.body.WriteString(`]}`)
		}
		t0 := time.Now()
		code, err := c.do(ctx, http.MethodPost, path)
		ns := time.Since(t0).Nanoseconds()
		s.rr.attempted++
		if err != nil || code != http.StatusOK {
			s.rr.failed++
			continue
		}
		s.rr.ops += int64(len(q))
		if len(q) == 1 {
			s.rr.queryNs = append(s.rr.queryNs, ns)
		}
		if i%sampleEvery == 0 {
			samples = append(samples, sampled{sets: q, body: slices.Clone(c.resp.Bytes())})
		}
	}
	rr := s.finish()
	d := newDigest()
	for _, sm := range samples {
		d.str(string(sm.body))
		rr.attempted++
		if !l.verify(ctx, sm) {
			rr.failed++
		}
	}
	rr.digest = d.sum()
	return rr
}

// verify compares a kept response body with the library's answer for the
// same sets.
func (l *serveSearchLoad) verify(ctx context.Context, s sampled) bool {
	var got [][]server.MatchJSON
	if len(s.sets) == 1 {
		var r struct {
			Matches []server.MatchJSON `json:"matches"`
		}
		if json.Unmarshal(s.body, &r) != nil {
			return false
		}
		got = [][]server.MatchJSON{r.Matches}
	} else {
		var r struct {
			Results []server.BatchItemJSON `json:"results"`
		}
		if json.Unmarshal(s.body, &r) != nil || len(r.Results) != len(s.sets) {
			return false
		}
		for _, it := range r.Results {
			got = append(got, it.Matches)
		}
	}
	for i, si := range s.sets {
		want, err := l.eng.SearchContext(ctx, l.sets[si])
		if err != nil {
			return false
		}
		if l.o.corrupt && len(want) > 0 {
			want[0].Relatedness = math.Nextafter(want[0].Relatedness, 2)
		}
		if !sameMatches(got[i], want) {
			return false
		}
	}
	return true
}

// check has nothing left to do: serve_search verifies its kept responses
// after every round, while the collection they were computed against is
// still the one being served.
func (l *serveSearchLoad) check(context.Context, *workloadReport) {}

// stopServing drops the client's connection and shuts the server down.
func (l *serveSearchLoad) stopServing() error {
	l.cli.closeIdle()
	return l.sv.stop()
}

func (l *serveSearchLoad) close() error {
	return errors.Join(l.stopServing(), l.eng.Close())
}

// mixedClient is the serve_mixed_durable caller with the model of what its
// acknowledged writes left live.
type mixedClient struct {
	*client
	rng *rand.Rand
	// own lists the ids the client may still update or delete; live maps
	// each to the content the engine must hold for it.
	own  []int
	live map[int]silkmoth.Set
	// added are acknowledged POST /v1/sets bodies; the reply does not name
	// their ids, so they are never updated or deleted.
	added []silkmoth.Set
	// gone are ids the client deleted or replaced.
	gone []int
	// writes numbers the client's new sets so every name is unique.
	writes int
}

// serveMixedLoad is serve_mixed_durable: uniform reads with a tenth of the
// operations fsynced writes, then recovery from the data directory.
type serveMixedLoad struct {
	eng      *silkmoth.Engine
	cfg      silkmoth.Config
	sets     []silkmoth.Set
	frags    [][]byte
	fresh    []silkmoth.Set // contents for added and replacing sets
	sv       *serving
	cli      *mixedClient
	perRound int
	o        options
}

// newServeMixedLoad serves b's engine to one closed-loop client that issues
// perRound operations a round; fresh supplies the contents of written sets.
func newServeMixedLoad(b built, sets, fresh []silkmoth.Set, o options, perRound int) (*serveMixedLoad, error) {
	frags, err := setFragments(sets)
	if err != nil {
		return nil, err
	}
	sv, err := startServing(b.eng, b.cfg, server.Options{})
	if err != nil {
		return nil, err
	}
	mc := &mixedClient{
		client: newClient(sv.base),
		rng:    rand.New(rand.NewSource(o.seed * 7907)),
		live:   make(map[int]silkmoth.Set, len(sets)),
	}
	for id, s := range sets {
		mc.own = append(mc.own, id)
		mc.live[id] = s
	}
	return &serveMixedLoad{
		eng:      b.eng,
		cfg:      b.cfg,
		sets:     sets,
		frags:    frags,
		fresh:    fresh,
		sv:       sv,
		cli:      mc,
		perRound: perRound,
		o:        o,
	}, nil
}

// nextFresh returns the content of the next written set under a name no
// other set has.
func (l *serveMixedLoad) nextFresh(c *mixedClient) silkmoth.Set {
	s := l.fresh[c.writes%len(l.fresh)]
	s.Name = fmt.Sprintf("w-%d", c.writes)
	c.writes++
	return s
}

// takeOwn removes and returns a random id the client owns.
func (c *mixedClient) takeOwn() int {
	i := c.rng.Intn(len(c.own))
	id := c.own[i]
	c.own[i] = c.own[len(c.own)-1]
	c.own = c.own[:len(c.own)-1]
	return id
}

func (l *serveMixedLoad) round(ctx context.Context, n int) roundResult {
	c := l.cli
	s := slicer{rr: roundResult{queryNs: make([]int64, 0, l.perRound)}}
	cr := &s.rr
	s.begin()
	for i := 0; i < l.perRound; i++ {
		if i > 0 && i%httpSlice == 0 {
			s.cut()
		}
		write := c.rng.Float64() < writeShare && len(c.own) > 0
		if !write {
			c.searchBody(l.frags[c.rng.Intn(len(l.frags))])
			t0 := time.Now()
			code, err := c.do(ctx, http.MethodPost, "/v1/search")
			ns := time.Since(t0).Nanoseconds()
			cr.attempted++
			if err != nil || code != http.StatusOK {
				cr.failed++
				continue
			}
			cr.ops++
			cr.queryNs = append(cr.queryNs, ns)
			continue
		}
		var method, path string
		var set silkmoth.Set
		id := -1
		var payload any
		switch c.rng.Intn(3) {
		case 0:
			set = l.nextFresh(c)
			method, path = http.MethodPost, "/v1/sets"
			payload = map[string]any{"sets": []server.SetJSON{{Name: set.Name, Elements: set.Elements}}}
		case 1:
			set, id = l.nextFresh(c), c.takeOwn()
			method, path = http.MethodPut, fmt.Sprintf("/v1/sets/%d", id)
			payload = map[string]any{"set": server.SetJSON{Name: set.Name, Elements: set.Elements}}
		default:
			id = c.takeOwn()
			method, path = http.MethodDelete, fmt.Sprintf("/v1/sets/%d", id)
		}
		c.body.Reset()
		var err error
		if payload != nil {
			err = json.NewEncoder(&c.body).Encode(payload)
		}
		code := 0
		t0 := time.Now()
		if err == nil {
			code, err = c.do(ctx, method, path)
		}
		ns := time.Since(t0).Nanoseconds()
		cr.attempted++
		if err != nil || code != http.StatusOK {
			cr.failed++
			continue
		}
		cr.ops++
		cr.writeNs = append(cr.writeNs, ns)
		switch method {
		case http.MethodPost:
			c.added = append(c.added, set)
		case http.MethodPut:
			var r struct {
				ID int `json:"id"`
			}
			if json.Unmarshal(c.resp.Bytes(), &r) != nil {
				cr.failed++
				continue
			}
			delete(c.live, id)
			c.gone = append(c.gone, id)
			c.own = append(c.own, r.ID)
			c.live[r.ID] = set
		default:
			delete(c.live, id)
			c.gone = append(c.gone, id)
		}
	}
	rr := s.finish()
	if n == 1 {
		rr.digest = corpusDigest(l.model())
	}
	return rr
}

// model returns the sets the acknowledged writes left live, by name.
func (l *serveMixedLoad) model() []silkmoth.Set {
	out := slices.Clone(l.cli.added)
	for _, s := range l.cli.live {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b silkmoth.Set) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// check compares the served engine with a fresh volatile heap engine built
// from the model, then drops the engine without a snapshot, reopens it
// from the data directory and compares again.
func (l *serveMixedLoad) check(ctx context.Context, rep *workloadReport) {
	st := l.eng.Stats()
	rep.Info["compactions"] = float64(st.Compactions)
	rep.Info["wal_records"] = float64(st.WALRecords)

	refCfg := silkmoth.Config{
		Metric: l.cfg.Metric, Similarity: l.cfg.Similarity,
		Delta: l.cfg.Delta, Alpha: l.cfg.Alpha,
	}
	model := l.model()
	ref, err := silkmoth.NewEngine(model, refCfg)
	if err != nil {
		rep.Attempted++
		rep.Failed++
		rep.note("building the model engine: %v", err)
		return
	}
	queries := sampleIndices(len(l.sets), scaled(256, l.o.scale, 16), l.o.seed)
	l.compare(ctx, "served", ref, len(model), queries, rep)

	// Recovery: stop serving, release the log handle without writing a
	// snapshot, and rebuild from the snapshot plus the WAL.
	if err := l.stopServing(); err != nil {
		rep.note("stopping the server: %v", err)
	}
	if err := l.eng.Close(); err != nil {
		rep.note("closing the engine: %v", err)
	}
	t0 := time.Now()
	eng, err := silkmoth.NewEngine(nil, l.cfg)
	if err == nil {
		_, err = eng.SearchContext(ctx, l.sets[queries[0]])
	}
	rep.Attempted++
	if err != nil {
		rep.Failed++
		rep.note("reopening %s: %v", l.cfg.DataDir, err)
		return
	}
	rep.Info["reopen_s"] = time.Since(t0).Seconds()
	l.eng = eng
	rep.Info["wal_replayed"] = float64(eng.Stats().WALReplayed)
	l.compare(ctx, "reopened", ref, len(model), queries, rep)
}

// compare checks sampled queries against the model engine, every
// acknowledged write against Live, and the live count against the model's.
func (l *serveMixedLoad) compare(ctx context.Context, phase string, ref *silkmoth.Engine, live int, queries []int, rep *workloadReport) {
	for n, qi := range queries {
		rep.Attempted++
		got, err1 := l.eng.SearchContext(ctx, l.sets[qi])
		want, err2 := ref.SearchContext(ctx, l.sets[qi])
		if l.o.corrupt && n == 0 {
			got = append(got, silkmoth.Match{Name: "corrupt"})
		}
		if err1 != nil || err2 != nil || !slices.Equal(canonical(got), canonical(want)) {
			rep.Failed++
			rep.note("%s engine answers query %d with %d matches, the model with %d", phase, qi, len(got), len(want))
		}
	}
	for id := range l.cli.live {
		rep.Attempted++
		if !l.eng.Live(id) {
			rep.Failed++
			rep.note("%s engine lost acknowledged set %d", phase, id)
		}
	}
	for _, id := range l.cli.gone {
		rep.Attempted++
		if l.eng.Live(id) {
			rep.Failed++
			rep.note("%s engine still holds deleted set %d", phase, id)
		}
	}
	rep.Attempted++
	if got := l.eng.Len(); got != live {
		rep.Failed++
		rep.note("%s engine has %d live sets, the model %d", phase, got, live)
	}
}

// stopServing drops the client's connection and shuts the server down,
// once.
func (l *serveMixedLoad) stopServing() error {
	if l.sv == nil {
		return nil
	}
	l.cli.closeIdle()
	err := l.sv.stop()
	l.sv = nil
	return err
}

func (l *serveMixedLoad) close() error {
	return errors.Join(l.stopServing(), l.eng.Close())
}
