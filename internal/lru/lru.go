// Package lru is the repository's one least-recently-used cache. The
// compressed index keeps its hot decoded posting lists in one, budgeted in
// bytes; silkmothd keeps its encoded query answers in another, budgeted in
// entries.
package lru

import "sync"

// Cache is a mutex-guarded LRU map bounded by a cost budget: each entry
// costs what the cost function says of its value, and once the entries'
// summed cost exceeds the budget the least recently used are evicted. The
// newest entry always stays, even alone over budget, until something
// displaces it. A nil *Cache is a cache that holds nothing: every Get
// misses and every Put is dropped.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	cost    func(V) int64
	size    int64
	evicted int64
	entries map[K]*entry[K, V]
	// root is the sentinel of a doubly-linked ring: root.next is the most
	// recently used entry, root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// New returns an empty cache whose entries may cost budget in sum.
func New[K comparable, V any](budget int64, cost func(V) int64) *Cache[K, V] {
	c := &Cache[K, V]{budget: budget, cost: cost, entries: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value cached under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hit(c.entries[k])
}

// GetBytes is Get keyed by a string's bytes. The map index converts key in
// place, which does not allocate: a hit costs no garbage.
func GetBytes[V any](c *Cache[string, V], key []byte) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hit(c.entries[string(key)])
}

// hit moves e, when present, to the front and returns its value. Callers
// hold mu.
func (c *Cache[K, V]) hit(e *entry[K, V]) (V, bool) {
	if e == nil {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Put caches v under k and evicts past the budget. When k is already
// cached — two callers that missed on the same key — the value stored
// first stays, and only moves to the front.
func (c *Cache[K, V]) Put(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.hit(c.entries[k]); ok {
		return
	}
	e := &entry[K, V]{key: k, val: v, cost: c.cost(v)}
	c.entries[k] = e
	c.pushFront(e)
	c.size += e.cost
	for c.size > c.budget && len(c.entries) > 1 {
		c.drop(c.root.prev)
		c.evicted++
	}
}

// PutBytes is Put keyed by a string's bytes, converting key only when the
// cache is not nil.
func PutBytes[V any](c *Cache[string, V], key []byte, v V) {
	if c != nil {
		c.Put(string(key), v)
	}
}

// Remove drops the entry cached under k, if any.
func (c *Cache[K, V]) Remove(k K) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		c.drop(e)
	}
}

// Reset drops every entry. The entries it drops are not evictions.
func (c *Cache[K, V]) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[K]*entry[K, V])
	c.root.prev, c.root.next = &c.root, &c.root
	c.size = 0
}

// Len reports how many entries are cached.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Cost reports the cached entries' summed cost.
func (c *Cache[K, V]) Cost() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Evictions reports how many entries the budget has pushed out. A climbing
// count under a steady working set means the budget is too small.
func (c *Cache[K, V]) Evictions() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// Budget reports the budget the cache was made with; 0 for a nil cache.
func (c *Cache[K, V]) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.budget
}

// drop unlinks e and forgets it. Callers hold mu.
func (c *Cache[K, V]) drop(e *entry[K, V]) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.size -= e.cost
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &c.root
	e.next = c.root.next
	e.prev.next = e
	e.next.prev = e
}
