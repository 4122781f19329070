package scc

import "fmt"

// rankRegistry keeps the set of live rank values, so splits can place
// part ranks strictly between the split component's rank and the next
// rank below it. It is a treap in one slice (children by index, deleted
// nodes recycled through a free list) with priorities from a fixed-seed
// generator, so its shape — and every walk over it — is deterministic.
// insert, remove, predecessor and max cost O(log n) expected; no
// operation touches a number of entries proportional to the set.
type rankRegistry struct {
	nodes []rankNode
	free  []int32
	root  int32 // -1 when empty
	size  int
	seed  uint64
}

type rankNode struct {
	key         float64
	prio        uint64
	left, right int32
}

// reset empties the registry, keeping its storage. A registry must be
// reset before first use.
func (r *rankRegistry) reset() {
	r.nodes, r.free, r.root, r.size, r.seed = r.nodes[:0], r.free[:0], -1, 0, 0
}

func (r *rankRegistry) len() int { return r.size }

// nextPrio is splitmix64 over the registry's own counter.
func (r *rankRegistry) nextPrio() uint64 {
	r.seed += 0x9E3779B97F4A7C15
	z := r.seed
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// split cuts tree t into the keys < key and the keys >= key.
func (r *rankRegistry) split(t int32, key float64) (lo, hi int32) {
	if t < 0 {
		return -1, -1
	}
	n := &r.nodes[t]
	if n.key < key {
		a, b := r.split(n.right, key)
		r.nodes[t].right = a
		return t, b
	}
	a, b := r.split(n.left, key)
	r.nodes[t].left = b
	return a, t
}

// merge joins trees a and b, every key of a below every key of b.
func (r *rankRegistry) merge(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if r.nodes[a].prio > r.nodes[b].prio {
		r.nodes[a].right = r.merge(r.nodes[a].right, b)
		return a
	}
	r.nodes[b].left = r.merge(a, r.nodes[b].left)
	return b
}

// insert adds v, which must not be registered already.
func (r *rankRegistry) insert(v float64) {
	n := rankNode{key: v, prio: r.nextPrio(), left: -1, right: -1}
	var i int32
	if k := len(r.free); k > 0 {
		i = r.free[k-1]
		r.free = r.free[:k-1]
		r.nodes[i] = n
	} else {
		i = int32(len(r.nodes))
		r.nodes = append(r.nodes, n)
	}
	lo, hi := r.split(r.root, v)
	r.root = r.merge(r.merge(lo, i), hi)
	r.size++
}

// remove deletes v when registered.
func (r *rankRegistry) remove(v float64) {
	link := &r.root
	for t := *link; t >= 0; t = *link {
		n := &r.nodes[t]
		switch {
		case v < n.key:
			link = &n.left
		case v > n.key:
			link = &n.right
		default:
			*link = r.merge(n.left, n.right)
			r.free = append(r.free, t)
			r.size--
			return
		}
	}
}

// predecessor returns the largest registered value strictly below v,
// or v-1 when none exists.
func (r *rankRegistry) predecessor(v float64) float64 {
	best, found := 0.0, false
	for t := r.root; t >= 0; {
		n := &r.nodes[t]
		if n.key < v {
			best, found = n.key, true
			t = n.right
		} else {
			t = n.left
		}
	}
	if !found {
		return v - 1
	}
	return best
}

// max returns the largest registered value, or 0 when empty.
func (r *rankRegistry) max() float64 {
	if r.root < 0 {
		return 0
	}
	t := r.root
	for r.nodes[t].right >= 0 {
		t = r.nodes[t].right
	}
	return r.nodes[t].key
}

// appendSorted appends the registered values in ascending order.
func (r *rankRegistry) appendSorted(dst []float64) []float64 {
	var walk func(t int32)
	walk = func(t int32) {
		if t < 0 {
			return
		}
		walk(r.nodes[t].left)
		dst = append(dst, r.nodes[t].key)
		walk(r.nodes[t].right)
	}
	walk(r.root)
	return dst
}

// check verifies that the registry holds exactly the live rank values.
func (r *rankRegistry) check(live map[float64]CompID) error {
	vals := r.appendSorted(nil)
	if len(vals) != len(live) || r.size != len(vals) {
		return fmt.Errorf("scc: registry has %d ranks (size %d), live set has %d", len(vals), r.size, len(live))
	}
	for i, v := range vals {
		if i > 0 && vals[i-1] >= v {
			return fmt.Errorf("scc: registry not strictly sorted at %d", i)
		}
		if _, ok := live[v]; !ok {
			return fmt.Errorf("scc: registry value %g not live", v)
		}
	}
	return nil
}
