package silkmoth

import "fmt"

// CorruptContainerForTest overwrites the kind byte of the compressed
// posting container of the given word, in a compressed engine, so that
// every later decode of that list fails. It exists for the external
// tests (package silkmoth_test), which cannot reach the index otherwise.
func CorruptContainerForTest(e *Engine, word string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.coll.Dict.Lookup(word)
	if !ok {
		return fmt.Errorf("word %q is not in the dictionary", word)
	}
	blob, ok := e.eng.Index().EncodedContainer(int(id))
	if !ok || len(blob) == 0 {
		return fmt.Errorf("word %q has no encoded container", word)
	}
	blob[0] = 0x7f // no such container kind
	return nil
}

// CheckDirectoriesForTest runs the element-directory self-check of the
// engine's index (index.Inverted.CheckDirectory): the directory is derived
// state, and whatever built the engine — a heap or compressed build, a
// recovered snapshot (mapped or not) plus a replayed log, any sequence of
// Add, Update, Delete and Compact — must have left it agreeing with the
// collection. It exists for the external tests, as above.
func CheckDirectoriesForTest(e *Engine) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.eng.Index().CheckDirectory()
}
