package tokens

// Interner maps token strings to dense ids. A Dictionary is one; Table is
// one a parallel builder's range interns into on its own goroutine, and
// Query the read-only one a query tokenizes through.
type Interner interface {
	// Intern returns the id of s, assigning the next one if s is new.
	Intern(s string) ID
	// InternBytes is Intern for a token held in a reused buffer: only a
	// token new to the interner materializes a string.
	InternBytes(b []byte) ID
}

// Table is an Interner for one goroutine: a map and the strings in id
// order, with no lock and no slot reuse. A parallel builder
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

// Query is the Interner a query tokenizes through: it reads a dictionary
// and never writes it. A token the dictionary holds gets its id; the k-th
// distinct token it does not hold gets Size()+k, so a query's novel tokens
// keep distinct ids among themselves and never name a slot the dictionary
// holds or has freed — their posting lists are empty, as a token the
// collection never held has none (paper §3). Reset starts a tokenization;
// the ids of one are meaningless in the next.
type Query struct {
	d     *Dictionary
	base  ID
	novel Table
}

// Reset points q at d and forgets the novel tokens of the last
// tokenization.
func (q *Query) Reset(d *Dictionary) {
	q.d, q.base = d, ID(d.Size())
	clear(q.novel.ids)
	q.novel.strs = q.novel.strs[:0]
}

// Intern returns the id of s in the dictionary, or a novel one.
func (q *Query) Intern(s string) ID {
	if id, ok := q.d.ids[s]; ok {
		return id
	}
	return q.base + q.novel.Intern(s)
}

// InternBytes is Intern for a token held in a buffer. It allocates only
// for a token the dictionary does not hold, met first in this
// tokenization.
func (q *Query) InternBytes(b []byte) ID {
	if id, ok := q.d.ids[string(b)]; ok {
		return id
	}
	return q.base + q.novel.InternBytes(b)
}
