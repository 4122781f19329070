package scc

import "slices"

// gcAdj is one side of a component's adjacency in the contracted graph
// G_c: each neighbor component with the multiplicity of the graph edges
// behind the contracted edge. Like graph's adjSet it is hybrid — a short
// unordered vector of (neighbor, count) pairs, scanned linearly, promoted
// to a map past gcPromote neighbors and demoted again below gcDemote —
// so the tens of thousands of low-degree components cost no map each.
//
// The zero value is empty.
type gcAdj struct {
	list []gcEdge
	m    map[CompID]int32 // non-nil exactly in map mode; list is then unused
}

type gcEdge struct {
	to CompID
	n  int32
}

const (
	gcPromote = 32
	gcDemote  = gcPromote / 2
	gcGrow    = 4
)

func (a *gcAdj) len() int {
	if a.m != nil {
		return len(a.m)
	}
	return len(a.list)
}

// count returns the multiplicity of the edge to o (0 when absent).
func (a *gcAdj) count(o CompID) int32 {
	if a.m != nil {
		return a.m[o]
	}
	for _, e := range a.list {
		if e.to == o {
			return e.n
		}
	}
	return 0
}

// add changes the multiplicity of the edge to o by d, creating the entry
// when absent and removing it when the count reaches zero.
func (a *gcAdj) add(o CompID, d int32) {
	if a.m != nil {
		if n := a.m[o] + d; n != 0 {
			a.m[o] = n
			return
		}
		delete(a.m, o)
		if len(a.m) <= gcDemote {
			a.list = make([]gcEdge, 0, gcPromote)
			for to, n := range a.m {
				a.list = append(a.list, gcEdge{to, n})
			}
			a.m = nil
		}
		return
	}
	for i := range a.list {
		if a.list[i].to == o {
			if a.list[i].n += d; a.list[i].n == 0 {
				a.dropAt(i)
			}
			return
		}
	}
	if len(a.list) == cap(a.list) {
		// Grow by at least gcGrow entries: a fresh or built-to-size
		// vector then takes its first few new neighbors in one copy.
		a.list = slices.Grow(a.list, max(gcGrow, len(a.list)))
	}
	a.list = append(a.list, gcEdge{o, d})
	if len(a.list) > gcPromote {
		a.m = make(map[CompID]int32, 2*len(a.list))
		for _, e := range a.list {
			a.m[e.to] = e.n
		}
		a.list = nil
	}
}

// del removes the edge to o whatever its multiplicity.
func (a *gcAdj) del(o CompID) {
	if n := a.count(o); n != 0 {
		a.add(o, -n)
	}
}

func (a *gcAdj) dropAt(i int) {
	last := len(a.list) - 1
	a.list[i] = a.list[last]
	a.list = a.list[:last]
}

// forEach calls fn for every neighbor and multiplicity until fn returns
// false. Order is unspecified; fn must not modify a.
func (a *gcAdj) forEach(fn func(o CompID, n int32) bool) {
	if a.m != nil {
		for o, n := range a.m {
			if !fn(o, n) {
				return
			}
		}
		return
	}
	for _, e := range a.list {
		if !fn(e.to, e.n) {
			return
		}
	}
}
