package serve

// Two layers of duplicate suppression sit in front of the engine pools,
// each written once and instantiated per result type (a search result, a
// solve verdict):
//
//   - flights coalesces identical *in-flight* requests: the first request
//     for a key becomes the leader and runs the work, later arrivals block
//     on its completion and share the result. Coalesced joiners never
//     enter the admission queue, so a duplicate-heavy burst costs one
//     queue slot, not N.
//   - lru is a bounded LRU of *completed* results keyed by canonical
//     request: repeats after completion are served without touching a pool
//     at all. It memoizes exact root results — distinct from the shared
//     transposition table, which memoizes interior bounds and survives
//     eviction churn. The same type, through take, is the checkout store
//     for parked partial solvers.

import (
	"container/list"
	"sync"
)

// flight is one in-flight request: joiners block on done and read res/err
// afterwards (the channel close is the happens-before edge).
type flight[R any] struct {
	done chan struct{}
	res  R
	err  error
}

func newFlight[R any]() *flight[R] { return &flight[R]{done: make(chan struct{})} }

// flights indexes in-flight requests by full request key.
type flights[R any] struct {
	mu    sync.Mutex
	calls map[string]*flight[R]
}

// join returns the flight for key, creating it when absent. leader reports
// whether this caller created it — the leader must eventually settle it
// with finish.
func (g *flights[R]) join(key string) (c *flight[R], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[string]*flight[R])
	}
	if c := g.calls[key]; c != nil {
		return c, false
	}
	c = newFlight[R]()
	g.calls[key] = c
	return c, true
}

// finish settles a flight. If it is the one joined under key it is
// unregistered first, so requests arriving after this point start a fresh
// flight (and will normally hit the cache instead); a private flight that
// was never joined leaves the index alone. Then the waiters are released.
func (g *flights[R]) finish(key string, c *flight[R], res R, err error) {
	g.mu.Lock()
	if g.calls[key] == c {
		delete(g.calls, key)
	}
	g.mu.Unlock()
	c.res, c.err = res, err
	close(c.done)
}

// lru is a bounded least-recently-used map. A zero or negative capacity
// disables it (get and take always miss, put is a no-op). A weighed lru
// (weigh) also bounds the sum of its values' sizes.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	size   func(V) int64 // a value's bytes; nil = unweighed
	budget int64         // bound on held
	held   int64         // sum of the live entries' sizes
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64 // size(val) when it was put
}

func newLRU[V any](capacity int) *lru[V] {
	if capacity <= 0 {
		return &lru[V]{}
	}
	return &lru[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// weigh makes put evict least-recently-used entries until the sizes of
// the live ones sum to at most budget bytes, as well as to at most the
// capacity in count. A value's size is read once, when it is put.
func (c *lru[V]) weigh(size func(V) int64, budget int64) {
	c.size, c.budget = size, budget
}

// get returns the value for key and marks it most recently used.
func (c *lru[V]) get(key string) (v V, ok bool) { return c.find(key, false) }

// take removes and returns the value for key — checkout semantics: two
// concurrent takers can never both hold one value.
func (c *lru[V]) take(key string) (v V, ok bool) { return c.find(key, true) }

func (c *lru[V]) find(key string, remove bool) (v V, ok bool) {
	if c.cap == 0 {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return v, false
	}
	if remove {
		c.remove(el)
	} else {
		c.ll.MoveToFront(el)
	}
	return el.Value.(*lruEntry[V]).val, true
}

func (c *lru[V]) put(key string, v V) {
	if c.cap == 0 {
		return
	}
	var size int64
	if c.size != nil {
		size = c.size(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[V])
		c.held += size - e.size
		e.val, e.size = v, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v, size: size})
		c.held += size
	}
	// An unweighed lru holds 0 bytes against a 0 budget.
	for c.ll.Len() > c.cap || c.held > c.budget {
		c.remove(c.ll.Back())
	}
}

// remove unlinks one entry; the caller holds mu.
func (c *lru[V]) remove(el *list.Element) {
	e := el.Value.(*lruEntry[V])
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.held -= e.size
}

// len reports the live entry count (for tests, Stats and /healthz).
func (c *lru[V]) len() int {
	if c.cap == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// bytes reports the summed sizes of the live entries (0 when unweighed).
func (c *lru[V]) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held
}
