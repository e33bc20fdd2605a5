package main

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"silkmoth"
)

// discoverChunk is the number of reference sets one DiscoverAgainst call
// carries, and discoverSlice the number of calls between two readings of the
// reference kernel: some 40 ms of work. One Discover() over the whole
// collection is a single call of several seconds, and the host's speed
// inside a call cannot be read from outside it.
const (
	discoverChunk = 4
	discoverSlice = 4
)

// discoverLoad joins the collection with itself a chunk of references at a
// time through the public engine's DiscoverAgainst, one caller and one
// worker: every reference makes the same pass over the whole index as in
// Discover's self-join.
type discoverLoad struct {
	eng  *silkmoth.Engine
	cfg  silkmoth.Config
	sets []silkmoth.Set
	// refs are the positions in sets of a round's references, evenly
	// spaced through generation order.
	refs []int
	o    options
	// pairs is the last round's answer by position in refs, kept for the
	// checks.
	pairs [][]silkmoth.Pair
}

func newDiscoverLoad(sp spec, b built, sets []silkmoth.Set, o options) *discoverLoad {
	n := min(scaled(sp.RoundOps, o.scale, 2*discoverChunk), len(sets))
	refs := make([]int, n)
	for i := range refs {
		refs[i] = i * len(sets) / n
	}
	return &discoverLoad{eng: b.eng, cfg: b.cfg, sets: sets, refs: refs, o: o}
}

func (l *discoverLoad) round(ctx context.Context, _ int) roundResult {
	var s slicer
	pairs := make([][]silkmoth.Pair, len(l.refs))
	chunk := make([]silkmoth.Set, 0, discoverChunk)
	s.begin()
	for at, call := 0, 0; at < len(l.refs); at, call = at+len(chunk), call+1 {
		if call > 0 && call%discoverSlice == 0 {
			s.cut()
		}
		chunk = chunk[:0]
		for _, ri := range l.refs[at:min(at+discoverChunk, len(l.refs))] {
			chunk = append(chunk, l.sets[ri])
		}
		t0 := time.Now()
		ps, err := l.eng.DiscoverAgainstContext(ctx, chunk)
		s.rr.queryNs = append(s.rr.queryNs, time.Since(t0).Nanoseconds())
		s.rr.attempted++
		if err != nil {
			s.rr.failed++
			continue
		}
		s.rr.ops += int64(len(chunk))
		for _, p := range ps {
			pairs[at+p.R] = append(pairs[at+p.R], p)
		}
	}
	rr := s.finish()
	l.pairs = pairs
	d := newDigest()
	for i, ps := range pairs {
		d.num(uint64(len(ps)))
		for _, p := range ps {
			d.num(uint64(l.refs[i]))
			d.num(uint64(p.S))
			d.num(math.Float64bits(p.Relatedness))
		}
	}
	rr.digest = d.sum()
	return rr
}

// check compares sampled references three ways: the pairs DiscoverAgainst
// reported for the reference against Search on it, and Search against brute
// force.
func (l *discoverLoad) check(ctx context.Context, rep *workloadReport) {
	var refs []int
	for _, i := range sampleIndices(len(l.refs), checkRefs(l.o.scale), l.o.seed) {
		ri := l.refs[i]
		refs = append(refs, ri)
		rep.Attempted++
		ms, err := l.eng.SearchContext(ctx, l.sets[ri])
		if err != nil {
			rep.Failed++
			rep.note("search %d: %v", ri, err)
			continue
		}
		var want, got []int
		for _, m := range ms {
			want = append(want, m.Index)
		}
		for _, p := range l.pairs[i] {
			got = append(got, p.S)
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			rep.Failed++
			rep.note("discover pairs set %d with %v, search finds %v", ri, got, want)
		}
	}
	bruteForceCheck(ctx, l.eng, l.cfg, l.sets, refs, l.o, rep)
}

func (l *discoverLoad) close() error { return l.eng.Close() }

// searchSlice is the number of searches between two readings of the
// reference kernel: some 40 ms of work.
const searchSlice = 100

// searchLoad issues one Engine.Search per reference, sequentially.
type searchLoad struct {
	eng  *silkmoth.Engine
	cfg  silkmoth.Config
	sets []silkmoth.Set
	refs []silkmoth.Set
	o    options
}

func newSearchLoad(sp spec, b built, sets []silkmoth.Set, o options) *searchLoad {
	refs := pickReferences(sets, scaled(sp.RoundOps, o.scale, 20))
	return &searchLoad{eng: b.eng, cfg: b.cfg, sets: sets, refs: refs, o: o}
}

// pickReferences returns n of the sets as search references: every k-th set
// in order of size. A query's cost grows with the cube of its size in the
// matching stage and a twentieth of the columns are ten times the rest, so
// a plain stride through generation order gives each seed a different
// number of large references and moves the tail by a fifth; a stride
// through size order gives every seed the same size profile.
func pickReferences(sets []silkmoth.Set, n int) []silkmoth.Set {
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(sets[a].Elements) - len(sets[b].Elements) })
	n = min(n, len(sets))
	picked := make([]int, n)
	for i := range picked {
		picked[i] = order[i*len(sets)/n]
	}
	// Issue them in generation order, so large references are spread
	// through a round instead of ending it.
	slices.Sort(picked)
	refs := make([]silkmoth.Set, n)
	for i, si := range picked {
		refs[i] = sets[si]
	}
	return refs
}

func (l *searchLoad) round(ctx context.Context, _ int) roundResult {
	s := slicer{rr: roundResult{queryNs: make([]int64, 0, len(l.refs))}}
	answers := make([][]silkmoth.Match, 0, len(l.refs))
	s.begin()
	for i, ref := range l.refs {
		if i > 0 && i%searchSlice == 0 {
			s.cut()
		}
		q0 := time.Now()
		ms, err := l.eng.SearchContext(ctx, ref)
		s.rr.queryNs = append(s.rr.queryNs, time.Since(q0).Nanoseconds())
		s.rr.attempted++
		if err != nil {
			s.rr.failed++
			continue
		}
		s.rr.ops++
		answers = append(answers, ms)
	}
	rr := s.finish()
	d := newDigest()
	for _, ms := range answers {
		d.num(uint64(len(ms)))
		for _, m := range ms {
			d.num(uint64(m.Index))
			d.num(math.Float64bits(m.Relatedness))
		}
	}
	rr.digest = d.sum()
	return rr
}

func (l *searchLoad) check(ctx context.Context, rep *workloadReport) {
	// References are corpus sets; find their positions so the brute-force
	// check can reach their planted neighbours.
	pos := make(map[string]int, len(l.sets))
	for i, s := range l.sets {
		pos[s.Name] = i
	}
	var refs []int
	for _, i := range sampleIndices(len(l.refs), checkRefs(l.o.scale), l.o.seed) {
		refs = append(refs, pos[l.refs[i].Name])
	}
	bruteForceCheck(ctx, l.eng, l.cfg, l.sets, refs, l.o, rep)
}

func (l *searchLoad) close() error { return l.eng.Close() }

// checkRefs is the number of references the brute-force check samples.
func checkRefs(scale float64) int { return scaled(64, scale, 8) }

// sampleIndices draws k distinct indices below n, the same ones for the
// same seed.
func sampleIndices(n, k int, seed int64) []int {
	if k > n {
		k = n
	}
	return rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)[:k]
}
