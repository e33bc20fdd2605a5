// Package shard exists only for the benchmark's traced replay
// (cmd/silkbench/trace.go), which times a search at a given width as a layer
// of its own. Every engine in the tree is one core.Engine: the public
// silkmoth.Engine holds one and passes its width to each search. The package
// goes with the replay (ROADMAP item 1(a)).
package shard

import (
	"context"
	"errors"

	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
)

// Engine is one core.Engine searched at a fixed width.
type Engine struct {
	eng   *core.Engine
	width int
}

// New builds an engine over coll whose searches run on at most width
// goroutines. It builds its own index, the lists filled from width set-id
// ranges concurrently (index.BuildParallel).
func New(coll *dataset.Collection, width int, opts core.Options) (*Engine, error) {
	if width < 1 {
		return nil, errors.New("shard: width must be >= 1")
	}
	eng, err := core.NewEngineFromSnapshot(&dataset.SnapshotData{Coll: coll}, width, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng, width: width}, nil
}

// SearchContext answers RELATED SET SEARCH for r in canonical order
// (core.Engine.SearchSplitContext at the engine's width). r must be
// tokenized against the collection's dictionary.
func (e *Engine) SearchContext(ctx context.Context, r *dataset.Set) ([]core.Match, error) {
	return e.eng.SearchSplitContext(ctx, r, nil, e.width, 0)
}

// Stats returns the engine's cumulative pruning funnel.
func (e *Engine) Stats() core.Funnel { return e.eng.Stats() }
