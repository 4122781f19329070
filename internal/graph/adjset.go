package graph

import (
	"slices"
	"sort"
)

// adjSet is one adjacency list with a hybrid representation:
//
//   - Low-degree nodes keep a sorted []NodeID. Membership is a binary
//     search over a handful of contiguous int64s, iteration is a linear
//     scan, and sorted access is free — all cache-friendly and
//     allocation-free.
//   - Past promoteDegree the set promotes to a map[NodeID]struct{} for O(1)
//     membership, keeping the slice as a lazily rebuilt sorted cache
//     (the dirty flag). Dropping back below demoteDegree demotes to the
//     pure-slice form so deletion-heavy streams do not strand hubs in map
//     mode forever.
//
// The zero value is an empty set.
type adjSet struct {
	// list holds the members sorted ascending while small; in map mode it
	// is the cached sorted view, valid only when !dirty.
	list []NodeID
	// set is non-nil exactly in map mode.
	set map[NodeID]struct{}
	// dirty marks the cached list stale (map mode only).
	dirty bool
	// queued marks the set as registered in its graph's dirtySorted list,
	// so Graph.noteDirty enqueues each set at most once per flush cycle.
	queued bool
}

const (
	// promoteDegree is the size at which an adjSet switches to map mode.
	// Real-world label graphs here have mean degree 2–5, so nearly every
	// node stays in the compact sorted-slice form.
	promoteDegree = 16
	// demoteDegree is the size at which a map-mode set drops back to the
	// slice form; the gap to promoteDegree is hysteresis against thrash.
	demoteDegree = promoteDegree / 2
)

func (a *adjSet) len() int {
	if a.set != nil {
		return len(a.set)
	}
	return len(a.list)
}

// search returns the insertion point of v in the sorted list.
func (a *adjSet) search(v NodeID) int {
	return sort.Search(len(a.list), func(i int) bool { return a.list[i] >= v })
}

func (a *adjSet) has(v NodeID) bool {
	if a.set != nil {
		_, ok := a.set[v]
		return ok
	}
	i := a.search(v)
	return i < len(a.list) && a.list[i] == v
}

// add inserts v and reports whether it was absent.
func (a *adjSet) add(v NodeID) bool {
	if a.set != nil {
		if _, ok := a.set[v]; ok {
			return false
		}
		a.set[v] = struct{}{}
		a.dirty = true
		return true
	}
	i := a.search(v)
	if i < len(a.list) && a.list[i] == v {
		return false
	}
	a.list = append(a.list, 0)
	copy(a.list[i+1:], a.list[i:])
	a.list[i] = v
	if len(a.list) > promoteDegree {
		a.set = make(map[NodeID]struct{}, len(a.list))
		for _, w := range a.list {
			a.set[w] = struct{}{}
		}
		// list stays valid as the sorted cache.
	}
	return true
}

// remove deletes v and reports whether it was present.
func (a *adjSet) remove(v NodeID) bool {
	if a.set != nil {
		if _, ok := a.set[v]; !ok {
			return false
		}
		delete(a.set, v)
		a.dirty = true
		if len(a.set) <= demoteDegree {
			a.list = a.list[:0]
			for w := range a.set {
				a.list = append(a.list, w)
			}
			slices.Sort(a.list)
			a.set = nil
			a.dirty = false
		}
		return true
	}
	i := a.search(v)
	if i >= len(a.list) || a.list[i] != v {
		return false
	}
	a.list = append(a.list[:i], a.list[i+1:]...)
	return true
}

// forEach calls fn for every member until fn returns false. Order is
// ascending in slice mode and unspecified in map mode.
func (a *adjSet) forEach(fn func(v NodeID) bool) {
	if a.set != nil {
		for v := range a.set {
			if !fn(v) {
				return
			}
		}
		return
	}
	for _, v := range a.list {
		if !fn(v) {
			return
		}
	}
}

// sorted returns the members in ascending order. The returned slice is
// owned by the set: callers must not mutate it, and it is valid only until
// the next mutation. Amortised O(1) for slice mode; map mode rebuilds the
// cache once per mutation burst.
func (a *adjSet) sorted() []NodeID {
	if a.set == nil {
		return a.list
	}
	if a.dirty {
		a.list = a.list[:0]
		for v := range a.set {
			a.list = append(a.list, v)
		}
		slices.Sort(a.list)
		a.dirty = false
	}
	return a.list
}

// adjSetFromSorted builds a set from an ascending member list, taking
// ownership of the slice. Large sets promote to map mode immediately, with
// the list retained as the (clean) sorted cache — exactly the state an
// equivalent sequence of adds followed by sorted() would reach.
func adjSetFromSorted(list []NodeID) adjSet {
	a := adjSet{list: list}
	if len(list) > promoteDegree {
		a.set = make(map[NodeID]struct{}, len(list))
		for _, v := range list {
			a.set[v] = struct{}{}
		}
	}
	return a
}

// clone returns a deep copy.
func (a *adjSet) clone() adjSet {
	c := adjSet{dirty: a.dirty}
	if a.list != nil {
		c.list = make([]NodeID, len(a.list))
		copy(c.list, a.list)
	}
	if a.set != nil {
		c.set = make(map[NodeID]struct{}, len(a.set))
		for v := range a.set {
			c.set[v] = struct{}{}
		}
	}
	return c
}
