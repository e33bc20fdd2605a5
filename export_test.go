package silkmoth

import (
	"fmt"

	"silkmoth/internal/index"
)

// CorruptContainerForTest overwrites the kind byte of the compressed
// posting container of the given word, in a one-shard compressed engine, so
// that every later decode of that list fails. It exists for the external
// tests (package silkmoth_test), which cannot reach the index otherwise.
func CorruptContainerForTest(e *Engine, word string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.sh.Collection().Dict.Lookup(word)
	if !ok {
		return fmt.Errorf("word %q is not in the dictionary", word)
	}
	ix, ok := e.sh.SnapshotData().Source.(*index.Inverted)
	if !ok {
		return fmt.Errorf("the engine exposes no index (more than one shard?)")
	}
	blob, ok := ix.EncodedContainer(int(id))
	if !ok || len(blob) == 0 {
		return fmt.Errorf("word %q has no encoded container", word)
	}
	blob[0] = 0x7f // no such container kind
	return nil
}

// CheckDirectoriesForTest runs the element-directory self-check of every
// shard's index (index.Inverted.CheckDirectory): the directory is derived
// state, and whatever built the engine — a heap or compressed build, a
// recovered snapshot (mapped or not) plus a replayed log, any sequence of
// Add, Update, Delete and Compact — must have left it agreeing with the
// collection. It exists for the external tests, as above.
func CheckDirectoriesForTest(e *Engine) error {
	return e.sh.CheckDirectories()
}
