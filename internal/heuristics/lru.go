package heuristics

import (
	"container/list"
	"fmt"
	"time"

	"wideplace/internal/sim"
)

// LRU is plain local caching (paper Table 3: caching, e.g. [14]): each node
// holds a fixed-capacity least-recently-used cache, serves hits locally and
// fetches misses from the origin. Storage cost is charged on the
// provisioned capacity of every placement node, matching the
// storage-constrained cost semantics of the bounds.
type LRU struct {
	capacity int
	env      *sim.Env
	caches   []*lruCache
}

var _ sim.Heuristic = (*LRU)(nil)

// NewLRU returns local LRU caching with the given per-node capacity (in
// objects).
func NewLRU(capacity int) *LRU { return &LRU{capacity: capacity} }

// Name implements sim.Heuristic.
func (l *LRU) Name() string { return fmt.Sprintf("lru-caching(c=%d)", l.capacity) }

// Attach implements sim.Heuristic.
func (l *LRU) Attach(env *sim.Env) error {
	if env == nil {
		return errNilEnv
	}
	l.env = env
	l.caches = make([]*lruCache, env.Topo.N)
	for n := range l.caches {
		l.caches[n] = newLRUCache(l.capacity)
	}
	return nil
}

// OnIntervalStart implements sim.Heuristic; caching is per-access, so the
// interval hook does nothing.
func (l *LRU) OnIntervalStart(int, time.Duration) {}

// OnRead implements sim.Heuristic.
func (l *LRU) OnRead(node, object int, at time.Duration) int {
	if node == l.env.Topo.Origin {
		return node // the origin serves itself
	}
	c := l.caches[node]
	if c.touch(object) {
		return node // local hit
	}
	// Miss: fetch from the origin and insert locally.
	if l.capacity > 0 {
		if victim, evict := c.insert(object); evict {
			l.env.Tracker.Evict(node, victim, at)
		}
		l.env.Tracker.Create(node, object, at)
	}
	return sim.Origin
}

// ProvisionedObjectHours implements sim.Heuristic: capacity on every
// placement node for the whole horizon.
func (l *LRU) ProvisionedObjectHours(horizon time.Duration) float64 {
	return float64(l.capacity) * float64(l.env.Topo.N-1) * horizon.Hours()
}

// lruCache is a classic map + intrusive list LRU.
type lruCache struct {
	capacity int
	ll       *list.List // front = most recent; values are object ids
	items    map[int]*list.Element
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{capacity: capacity, ll: list.New(), items: make(map[int]*list.Element, capacity)}
}

// touch returns true and refreshes recency when the object is cached.
func (c *lruCache) touch(object int) bool {
	el, ok := c.items[object]
	if !ok {
		return false
	}
	c.ll.MoveToFront(el)
	return true
}

// insert adds the object, returning the evicted victim if the cache was
// full. The object must not already be present.
func (c *lruCache) insert(object int) (victim int, evicted bool) {
	if c.capacity <= 0 {
		return 0, false
	}
	if c.ll.Len() >= c.capacity {
		back := c.ll.Back()
		victim = back.Value.(int)
		c.ll.Remove(back)
		delete(c.items, victim)
		evicted = true
	}
	c.items[object] = c.ll.PushFront(object)
	return victim, evicted
}
