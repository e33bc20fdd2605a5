package index

import (
	"fmt"

	"silkmoth/internal/dataset"
)

// Directory returns the element directory the filters read per posting:
// the indexed collection's element table (dataset.Directory), one
// ⟨key, size⟩ entry per element, addressed base[Set]+Elem. The index keeps
// no copy of it: the collection's builders, Append, DropSets and snapshot
// load keep it in step with the sets, and the posting lists with it.
//
//silkmoth:hotpath
func (ix *Inverted) Directory() *dataset.Directory { return &ix.coll.Dir }

// CheckDirectory verifies the element table the index reads against the
// collection's content (dataset.Collection.CheckDirectory), and that the
// containers were encoded against a prefix of its base. The mutation and
// recovery harnesses call it after every kind of index maintenance; nil
// means consistent.
func (ix *Inverted) CheckDirectory() error {
	if err := ix.coll.CheckDirectory(); err != nil {
		return err
	}
	if n := len(ix.coll.Sets); ix.cs != nil && (ix.encSets < 0 || ix.encSets > n) {
		return fmt.Errorf("index: containers encoded against %d sets, directory covers %d", ix.encSets, n)
	}
	return nil
}
