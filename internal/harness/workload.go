// Package harness regenerates every table and figure of the paper's
// evaluation (§8). Each experiment builds one of the three applications'
// workloads — approximate string matching on a DBLP-like corpus, schema
// matching and approximate inclusion dependency on WebTable-like corpora —
// and sweeps the variants the corresponding figure compares, reporting
// runtime and the candidate funnel at each stage.
package harness

import (
	"fmt"

	"silkmoth/internal/core"
	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/index"
	"silkmoth/internal/tokens"
)

// app identifies one of the paper's three evaluation applications (§8.1).
type app int

const (
	// stringMatching: RELATED SET DISCOVERY, SET-SIMILARITY, Eds on a
	// DBLP-like title corpus.
	stringMatching app = iota
	// schemaMatching: RELATED SET DISCOVERY, SET-SIMILARITY, Jac on a
	// WebTable-like schema corpus.
	schemaMatching
	// inclusionDependency: RELATED SET SEARCH, SET-CONTAINMENT, Jac on a
	// WebTable-like column corpus.
	inclusionDependency
)

func (a app) String() string {
	switch a {
	case stringMatching:
		return "string-matching"
	case schemaMatching:
		return "schema-matching"
	case inclusionDependency:
		return "inclusion-dependency"
	default:
		return fmt.Sprintf("App(%d)", int(a))
	}
}

// allApps lists the applications in the paper's order.
var allApps = []app{stringMatching, schemaMatching, inclusionDependency}

// Paper default parameters (Table 3): every application's δ is the middle
// of the sweep, and its α, indexed by app, that of the figure captions.
const defaultDelta = 0.75

var defaultAlpha = [...]float64{stringMatching: 0.8, schemaMatching: 0, inclusionDependency: 0.5}

// baseSets is each application's corpus size at scale 1: titles, tables
// and columns. The paper uses 100K titles and 500K tables/columns on a
// 64-core server; these defaults keep every figure regenerable in minutes
// on a laptop. Scale up via the scale parameter (paper sizes ≈ scale
// 50-170).
var baseSets = [...]float64{stringMatching: 2000, schemaMatching: 3000, inclusionDependency: 3000}

// baseRefs is the number of reference columns a search workload draws.
const baseRefs = 100

// corpusSize is the number of raw sets app's corpus has at scale.
func corpusSize(a app, scale float64) int { return int(baseSets[a] * scale) }

// workload is a built, tokenized corpus ready for engines.
type workload struct {
	app  app
	coll *dataset.Collection
	// refs are the reference sets: the collection itself for discovery
	// applications, the drawn reference columns for search.
	refs *dataset.Collection
	// search reports search mode (per-reference passes, index excluded
	// from timing) versus discovery mode (index build included, §8.2).
	search bool
	// base carries the application's metric, similarity and q.
	base core.Options
	// index is the pre-built inverted index, shared by search-mode runs.
	index *index.Inverted
}

// buildWorkload constructs the corpus for a at the given scale with the
// given thresholds. Alpha participates in tokenization for string matching
// (q = the largest sound gram length, footnote 11), so workloads are built
// per (app, scale, alpha).
func buildWorkload(a app, scale float64, delta, alpha float64, seed int64) workload {
	n := corpusSize(a, scale)
	switch a {
	case stringMatching:
		raws := datagen.DBLP(datagen.DBLPConfig{NumTitles: n, Seed: seed})
		q := core.DefaultQ(delta, alpha)
		coll := dataset.BuildQGram(tokens.NewDictionary(), raws, q)
		return workload{app: a, coll: coll, refs: coll,
			base: core.Options{Metric: core.SetSimilarity, Sim: core.Eds, Q: q}}
	case schemaMatching:
		raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: n, Seed: seed})
		coll := dataset.BuildWord(tokens.NewDictionary(), raws)
		return workload{app: a, coll: coll, refs: coll,
			base: core.Options{Metric: core.SetSimilarity, Sim: core.Jaccard}}
	case inclusionDependency:
		raws := datagen.WebTableColumns(datagen.ColumnConfig{NumColumns: n, Seed: seed})
		dict := tokens.NewDictionary()
		coll := dataset.BuildWord(dict, raws)
		refs := dataset.BuildWord(dict, datagen.PickReferences(raws, baseRefs, 4))
		return workload{app: a, coll: coll, refs: refs, search: true,
			base:  core.Options{Metric: core.SetContainment, Sim: core.Jaccard},
			index: index.Build(coll)}
	default:
		panic("harness: unknown app")
	}
}

// Variant names shared with the paper's figures.
const (
	variantNoOpt    = "NOOPT"
	variantOpt      = "OPT"
	variantNoFilter = "NOFILTER"
	variantCheck    = "CHECK"
	variantNN       = "NEARESTNEIGHBOR"
	variantNoRed    = "NOREDUCTION"
	variantRed      = "REDUCTION"
	variantSilkmoth = "SILKMOTH"
	variantFastJoin = "FASTJOIN"
)
