package lru

import (
	"fmt"
	"sync"
	"testing"

	"silkmoth/internal/raceflag"
)

func byLen(v []int) int64 { return int64(len(v)) }

// keys lists the cache's keys from most to least recently used.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []K
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// TestEvictionByCost: past the budget the least recently used entries go,
// a Get renews an entry, and the newest entry stays even alone over budget.
func TestEvictionByCost(t *testing.T) {
	c := New[string](10, byLen)
	c.Put("a", make([]int, 4))
	c.Put("b", make([]int, 4))
	if _, ok := c.Get("a"); !ok { // a is now the most recent
		t.Fatal("a missing")
	}
	c.Put("c", make([]int, 4)) // 12 > 10: evicts b, the least recent
	if got := fmt.Sprint(keys(c)); got != "[c a]" {
		t.Fatalf("keys %s, want [c a]", got)
	}
	if c.Cost() != 8 || c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("cost %d len %d evictions %d, want 8 2 1", c.Cost(), c.Len(), c.Evictions())
	}
	c.Put("big", make([]int, 25)) // alone over budget: everything else goes
	if got := fmt.Sprint(keys(c)); got != "[big]" {
		t.Fatalf("keys %s, want [big]", got)
	}
	if c.Cost() != 25 || c.Evictions() != 3 {
		t.Fatalf("cost %d evictions %d, want 25 3", c.Cost(), c.Evictions())
	}
	c.Put("d", make([]int, 1)) // displaces the over-budget entry
	if got := fmt.Sprint(keys(c)); got != "[d]" {
		t.Fatalf("keys %s, want [d]", got)
	}
}

// TestPutKeepsFirstValue: a second Put of a cached key keeps the value
// stored first and its cost, and renews the entry.
func TestPutKeepsFirstValue(t *testing.T) {
	c := New[int](100, byLen)
	c.Put(1, []int{1})
	c.Put(2, []int{2})
	c.Put(1, []int{9, 9, 9})
	if v, _ := c.Get(1); fmt.Sprint(v) != "[1]" {
		t.Fatalf("Get(1) = %v, want the first value [1]", v)
	}
	if c.Cost() != 2 || c.Len() != 2 {
		t.Fatalf("cost %d len %d, want 2 2", c.Cost(), c.Len())
	}
	c = New[int](2, byLen)
	c.Put(1, []int{1})
	c.Put(2, []int{2})
	c.Put(1, []int{1}) // renews 1, so 2 is the least recent
	c.Put(3, []int{3})
	if got := fmt.Sprint(keys(c)); got != "[3 1]" {
		t.Fatalf("keys %s, want [3 1]", got)
	}
}

// TestResetIsNoEviction: Reset empties the cache without counting
// evictions, and the cache works after it.
func TestResetIsNoEviction(t *testing.T) {
	c := New[int](1, byLen)
	c.Put(1, []int{1})
	c.Put(2, []int{2}) // evicts 1
	c.Reset()
	if c.Len() != 0 || c.Cost() != 0 || c.Evictions() != 1 {
		t.Fatalf("after Reset: len %d cost %d evictions %d, want 0 0 1", c.Len(), c.Cost(), c.Evictions())
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("Reset kept an entry")
	}
	c.Put(3, []int{3})
	if v, ok := c.Get(3); !ok || v[0] != 3 {
		t.Fatalf("Get(3) = %v, %v after Reset", v, ok)
	}
}

// TestRemove: Remove drops one entry and its cost; an absent key is a no-op.
func TestRemove(t *testing.T) {
	c := New[int](100, byLen)
	c.Put(1, []int{1, 1})
	c.Put(2, []int{2})
	c.Remove(1)
	c.Remove(7)
	if _, ok := c.Get(1); ok {
		t.Fatal("removed entry still cached")
	}
	if got := fmt.Sprint(keys(c)); got != "[2]" || c.Cost() != 1 || c.Evictions() != 0 {
		t.Fatalf("keys %s cost %d evictions %d, want [2] 1 0", got, c.Cost(), c.Evictions())
	}
}

// TestNilCache: a nil cache misses every Get, drops every Put and reports
// nothing held.
func TestNilCache(t *testing.T) {
	var c *Cache[string, []int]
	c.Put("a", []int{1})
	PutBytes(c, []byte("a"), []int{1})
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache hit")
	}
	if _, ok := GetBytes(c, []byte("a")); ok {
		t.Fatal("nil cache hit by bytes")
	}
	c.Remove("a")
	c.Reset()
	if c.Len() != 0 || c.Cost() != 0 || c.Evictions() != 0 || c.Budget() != 0 {
		t.Fatal("nil cache reports holdings")
	}
}

// TestGetBytesAllocs: a hit looked up by a key's bytes allocates nothing,
// for a key too long for the compiler's on-stack conversion buffer.
func TestGetBytesAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	c := New[string](4, func([]byte) int64 { return 1 })
	key := []byte("search\x000|0|1|0.5|0|0|0:false|0\x002\x0021:77 Mass Ave Boston MA")
	PutBytes(c, key, []byte(`{}`))
	got := testing.AllocsPerRun(100, func() {
		if _, ok := GetBytes(c, key); !ok {
			t.Fatal("miss")
		}
	})
	if got != 0 {
		t.Fatalf("GetBytes hit allocates %v times, want 0", got)
	}
}

// TestConcurrentUse runs Get, Put, Remove and Reset from several goroutines
// at once (the race detector's case) and checks the bookkeeping after.
func TestConcurrentUse(t *testing.T) {
	c := New[int](64, byLen)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				k := (i*7 + g) % 50
				switch i % 10 {
				case 0:
					c.Remove(k)
				case 1:
					if g == 0 && i%500 == 1 {
						c.Reset()
					}
				case 2, 3, 4:
					c.Put(k, make([]int, k%5+1))
				default:
					if v, ok := c.Get(k); ok && len(v) != k%5+1 {
						t.Errorf("Get(%d) = %d postings, want %d", k, len(v), k%5+1)
					}
				}
			}
		}()
	}
	wg.Wait()
	var sum int64
	for _, k := range keys(c) {
		v, _ := c.Get(k)
		sum += byLen(v)
	}
	if n := len(keys(c)); n != c.Len() || sum != c.Cost() || sum > c.Budget() {
		t.Fatalf("ring %d entries costing %d, cache says %d costing %d (budget %d)", n, sum, c.Len(), c.Cost(), c.Budget())
	}
}
