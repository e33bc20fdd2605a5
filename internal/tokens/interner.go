package tokens

// Interner maps token strings to dense ids. A Dictionary is one, safe for
// concurrent use; Dictionary.Owned and Table are the lock-free ones a
// builder uses from one goroutine.
type Interner interface {
	// Intern returns the id of s, assigning the next one if s is new.
	Intern(s string) ID
	// InternBytes is Intern for a token held in a reused buffer: only a
	// token new to the interner materializes a string.
	InternBytes(b []byte) ID
	// Lookup returns the id of s without interning it.
	Lookup(s string) (ID, bool)
	// LookupBytes is Lookup for a token held in a buffer.
	LookupBytes(b []byte) (ID, bool)
}

// Table is an Interner for one goroutine: a map and the strings in id
// order, with no lock, no refcounts and no slot reuse. A parallel builder
// interns each set-id range but the first into its own Table, then
// replays Strings into the shared dictionary in range order, which assigns
// the ids a serial build would have.
type Table struct {
	ids  map[string]ID
	strs []string
}

// Intern returns the id of s, assigning len(Strings()) if s is new.
func (t *Table) Intern(s string) ID {
	if id, ok := t.ids[s]; ok {
		return id
	}
	return t.insert(s)
}

// InternBytes is Intern for a token held in a buffer.
func (t *Table) InternBytes(b []byte) ID {
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	return t.insert(string(b))
}

// Lookup returns the id of s without interning it.
func (t *Table) Lookup(s string) (ID, bool) {
	id, ok := t.ids[s]
	return id, ok
}

// LookupBytes is Lookup for a token held in a buffer.
func (t *Table) LookupBytes(b []byte) (ID, bool) {
	id, ok := t.ids[string(b)]
	return id, ok
}

func (t *Table) insert(s string) ID {
	if t.ids == nil {
		t.ids = make(map[string]ID)
	}
	id := ID(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// Strings returns the interned strings, string i being the one with id i:
// the order of their first Intern.
func (t *Table) Strings() []string { return t.strs }
