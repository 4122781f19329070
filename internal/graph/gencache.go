package graph

import "sync/atomic"

// Generation-stamped answer caches. Derived answers that are expensive to
// materialize (sorted edge lists, sorted match sets, the engines' rendered
// canonical answer bytes) but stable between mutations are memoized
// against Graph.Generation: a read that finds a stamp matching the current
// generation returns the cached value in O(1), and any mutation implicitly
// invalidates every cache by bumping the generation — no registration or
// explicit invalidation needed.
//
// Concurrency: the cache is safe under the package's read-share contract.
// Between mutations multiple readers may race to fill a cold cache; each
// computes the (deterministic) value privately and the last atomic store
// wins, so readers never observe a torn or stale-generation value. During
// exclusive mutation there are no readers, by contract.

// genCacheEntry pairs a computed value with the generation it was built at.
type genCacheEntry[T any] struct {
	gen uint64
	val T
}

// GenCache memoizes one derived value per graph generation. The zero value
// is an empty cache. Values handed out are shared: callers must treat them
// as read-only, and they remain valid until the next mutation.
type GenCache[T any] struct {
	p atomic.Pointer[genCacheEntry[T]]
}

// Get returns the cached value if it was computed at g's current
// generation, otherwise computes, stores and returns a fresh one.
func (c *GenCache[T]) Get(g *Graph, compute func() T) T {
	gen := g.Generation()
	if e := c.p.Load(); e != nil && e.gen == gen {
		return e.val
	}
	v := compute()
	c.p.Store(&genCacheEntry[T]{gen: gen, val: v})
	return v
}
