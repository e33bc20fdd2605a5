package server

import (
	"container/list"
	"sync"
)

// resultCache is a mutex-protected LRU over encoded answers, one entry per
// query: a /v1/search body and a plain batch item share one. Keys encode
// the query's full identity (Server.appendKey), so one cache safely serves
// every endpoint. Every mutation invalidates the whole cache: any changed
// collection can change any result.
type resultCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent; values are *cacheEntry
	byKey map[string]*list.Element
	// evicted counts entries pushed out by capacity pressure — not purges,
	// which are deliberate invalidation. A climbing rate under a steady
	// working set means the cache is undersized.
	evicted int64
}

type cacheEntry struct {
	key  string
	body []byte
}

// newResultCache returns an LRU holding up to max entries; max < 1 disables
// caching (every lookup misses, every store is dropped).
func newResultCache(max int) *resultCache {
	return &resultCache{
		max:   max,
		order: list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// get returns the cached body for key and whether it was present. The
// lookup converts key in the map index expression, which does not
// allocate: a hit costs no garbage.
func (c *resultCache) get(key []byte) ([]byte, bool) {
	if c.max < 1 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[string(key)]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under key, evicting the least-recently-used entry when
// full. The key is copied; the caller must not mutate body afterwards.
func (c *resultCache) put(key []byte, body []byte) {
	if c.max < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[string(key)]; ok {
		el.Value.(*cacheEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	k := string(key)
	c.byKey[k] = c.order.PushFront(&cacheEntry{key: k, body: body})
	for c.order.Len() > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.evicted++
	}
}

// purge drops every entry.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.byKey = make(map[string]*list.Element)
}

// len reports the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// evictions reports how many entries capacity pressure has pushed out.
func (c *resultCache) evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}
