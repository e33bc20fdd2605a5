package tokens

// Interner maps token strings to dense ids. A Dictionary is one; a Table
// is one a parallel builder's range interns into on its own goroutine, and
// Query the read-only one a query tokenizes through.
type Interner interface {
	// Intern returns the id of s, assigning the next one if s is new.
	Intern(s string) ID
	// InternBytes is Intern for a token held in a reused buffer, which
	// the interner copies if it keeps it.
	InternBytes(b []byte) ID
}

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
	q.novel.reset()
}

// Intern returns the id of s in the dictionary, or a novel one.
func (q *Query) Intern(s string) ID {
	if id, ok := q.d.Lookup(s); ok {
		return id
	}
	return q.base + q.novel.Intern(s)
}

// InternBytes is Intern for a token held in a buffer. It allocates only
// to grow the table of novel tokens.
func (q *Query) InternBytes(b []byte) ID {
	if id, ok := q.d.LookupBytes(b); ok {
		return id
	}
	return q.base + q.novel.InternBytes(b)
}
