package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"silkmoth"
	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
)

// kind selects the load model a workload runs under.
type kind int

const (
	// kindDiscover times Engine.DiscoverAgainst calls that join the
	// collection with itself a few references at a time, one caller.
	kindDiscover kind = iota
	// kindSearch times sequential Engine.Search calls, one caller.
	kindSearch
	// kindServeSearch drives POST /v1/search and /v1/search/batch through
	// the serving handler on a loopback listener from a closed-loop client.
	kindServeSearch
	// kindServeMixed adds writes (POST/PUT/DELETE /v1/sets) to the client
	// scripts and reopens the durable engine afterwards.
	kindServeMixed
)

// spec is one benchmark workload: a seeded corpus, the engine
// configuration it is served under and the load that runs against it.
// Sizes are for --scale 1 and shrink linearly with the flag.
type spec struct {
	Name string
	Why  string
	Kind kind
	// Config is the engine configuration; DataDir is filled per build when
	// Durable is set.
	Config  silkmoth.Config
	Durable bool
	// Corpus generates the raw sets from the seed and scale.
	Corpus func(seed int64, scale float64) []dataset.RawSet
	// RoundOps is the number of caller operations per round: reference
	// sets joined, Search calls, or HTTP requests.
	RoundOps int
	// TraceSample is the number of queries the traced replay walks.
	TraceSample int
	// Preview is the stage split the engine's own sampled timers showed
	// when the workload was sized; the traced replay prints its measured
	// split beside it.
	Preview string
}

// Shares of request kinds in the serving scripts.
const (
	// batchShare of serve_search requests are /v1/search/batch calls of
	// batchSize sets; the rest are single /v1/search calls.
	batchShare = 0.10
	batchSize  = 16
	// writeShare of serve_mixed_durable operations are writes, split
	// evenly between add, update and delete.
	writeShare = 0.10
	// zipfS skews serve_search's query popularity so that the result
	// cache answers well over half of the requests: the median then sits
	// inside the hit path and the tail inside the miss path.
	zipfS = 1.1
)

func scaled(n int, scale float64, floor int) int {
	m := int(float64(n) * scale)
	if m < floor {
		m = floor
	}
	return m
}

var workloads = []spec{
	{
		Name: "discover_strings",
		Why:  "Paper app 1 self-join under Eds: candidate-bound, so filter, index probing and the edit-distance kernels do the work; matching, server and wal do none.",
		Kind: kindDiscover,
		Config: silkmoth.Config{
			Metric: silkmoth.SetSimilarity, Similarity: silkmoth.Eds,
			Delta: 0.75, Alpha: 0.8, Concurrency: 1,
		},
		Corpus: func(seed int64, scale float64) []dataset.RawSet {
			return datagen.DBLP(datagen.DBLPConfig{NumTitles: scaled(8000, scale, 40), Seed: seed})
		},
		RoundOps:    1024,
		TraceSample: 256,
		Preview:     "collect 62%, nn 38%, signature <1%, verify <1%",
	},
	{
		Name: "search_columns",
		Why:  "Paper app 3 containment search under Jaccard: the balanced one, and the only workload where maximum-matching verification is a material share of a query.",
		Kind: kindSearch,
		Config: silkmoth.Config{
			Metric: silkmoth.SetContainment, Similarity: silkmoth.Jaccard,
			Delta: 0.75, Alpha: 0.5,
		},
		Corpus: func(seed int64, scale float64) []dataset.RawSet {
			return datagen.WebTableColumns(datagen.ColumnConfig{NumColumns: scaled(30000, scale, 60), Seed: seed})
		},
		RoundOps:    6000,
		TraceSample: 1000,
		Preview:     "collect 28%, nn 44%, verify 27%",
	},
	{
		Name: "serve_search",
		Why:  "Zipf-skewed reads through the real handler on 2 shards with a warm result cache: serving-bound, p50 follows the cache-hit path and p99 the decode-tokenize-scatter-encode miss path.",
		Kind: kindServeSearch,
		Config: silkmoth.Config{
			Metric: silkmoth.SetSimilarity, Similarity: silkmoth.Jaccard,
			Delta: 0.7, Shards: 2,
		},
		Corpus:      schemaCorpus,
		RoundOps:    6000,
		TraceSample: 2000,
	},
	{
		Name: "serve_mixed_durable",
		Why:  "Uniform reads between 10% fsynced writes on compressed postings with compaction, then a reopen: the cache never hits, every tenth operation pays the WAL, recovery is checked.",
		Kind: kindServeMixed,
		Config: silkmoth.Config{
			Metric: silkmoth.SetSimilarity, Similarity: silkmoth.Jaccard,
			Delta: 0.7, CompressedPostings: true,
			// A compaction every fifth round or so: a round tombstones
			// RoundOps × writeShare × 2/3 sets out of ≈ 25k.
			CompactionThreshold: 0.05,
		},
		Durable:     true,
		Corpus:      schemaCorpus,
		RoundOps:    4000,
		TraceSample: 2000,
	},
}

func schemaCorpus(seed int64, scale float64) []dataset.RawSet {
	return datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: scaled(20000, scale, 60), Seed: seed})
}

func findWorkload(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func toSets(raws []dataset.RawSet) []silkmoth.Set {
	out := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		out[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	return out
}

// digest accumulates a workload's inputs or answers into one printable
// fingerprint, so two runs can be compared without keeping either.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) str(s string) {
	d.num(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) num(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

func corpusDigest(sets []silkmoth.Set) string {
	d := newDigest()
	for _, s := range sets {
		d.str(s.Name)
		d.num(uint64(len(s.Elements)))
		for _, e := range s.Elements {
			d.str(e)
		}
	}
	return d.sum()
}

// seed1Digests pins the seed-1, scale-1 corpora: an edit to
// internal/datagen that changes a workload's inputs makes every later
// number incomparable, so it must fail loudly instead.
var seed1Digests = map[string]string{
	"discover_strings":    "fc0fb89c07b5c5f6",
	"search_columns":      "551b7567cab15361",
	"serve_search":        "8e28b2b0dfb2e61b",
	"serve_mixed_durable": "8e28b2b0dfb2e61b",
}

func checkSeed1Digest(name string, seed int64, scale float64, got string) error {
	want, ok := seed1Digests[name]
	if !ok || seed != 1 || scale != 1 {
		return nil
	}
	if got != want {
		return fmt.Errorf("%s: seed-1 corpus digest is %s, recorded %s: internal/datagen changed the workload", name, got, want)
	}
	return nil
}
