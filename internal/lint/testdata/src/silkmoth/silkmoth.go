// Package silkmoth is the ctxflow fixture for the public package; its
// pseudo import path silkmoth, the module's root, places it in the
// analyzer's scope.
package silkmoth

import "context"

type Engine struct{}

type Match struct{}

// Search is a context-free twin that wraps its Context form.
func (e *Engine) Search(ref int) ([]Match, error) { // want `exported query entrypoint Search must take a context\.Context`
	return e.SearchContext(context.Background(), ref) // want `context\.Background\(\) mints an uncancellable root context`
}

func (e *Engine) SearchContext(ctx context.Context, ref int) ([]Match, error) {
	return nil, ctx.Err()
}
