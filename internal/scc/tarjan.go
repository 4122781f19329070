// Package scc implements strongly connected component maintenance after
// Fan, Hu & Tian (SIGMOD 2017, Section 5.3): Tarjan's batch algorithm [43]
// extended with the auxiliary structures the paper maintains (num, lowlink,
// DFS-tree parents, edge classification, a contracted graph G_c with edge
// counters and topological ranks), and the relatively bounded incremental
// algorithms IncSCC+ (Fig. 7), IncSCC− and batch IncSCC, plus the DynSCC
// baseline used in the experiments.
//
// # State layout
//
// State keeps no per-node or per-component map. The graph gives every
// node a dense slot (graph.Graph.Slot), and the state keeps one record
// per slot: the node's component, its Tarjan fields (num, lowlink, desc,
// DFS parent as a slot) and its links in its component's circular member
// list. Components are dense indices into a table, with a free list; each
// entry holds the member list's head and size, the topological rank, and
// its in- and out-edges in G_c as (neighbor, multiplicity) vectors that
// turn into maps only past 32 neighbors. The live rank values sit in a
// treap over one slice. Build runs one array Tarjan (the kernel that also
// serves Components, the batch baseline) over a compact successor array
// and counts G_c from it with a per-component stamp instead of a map or
// a sort.
//
// # Cost of the structural updates
//
// Every step of IncSCC touches only the affected area AFF:
//
//   - A split runs Tarjan scoped to the component (the paper's IncSCC−
//     fallback). The largest part keeps the component's ID, so only the
//     members of the other parts are relinked, and only the G_c edges at
//     those members move: O(|moved| + their degree), not O(|component|)
//     or the component's G_c degree.
//   - A merge keeps the largest cycle component's ID and moves the
//     members and G_c edges of the others onto it, so its cost follows
//     the smaller components, not the largest.
//   - The rank registry answers insert, remove, predecessor and max in
//     O(log |components|) expected time; a split or merge changes O(|AFF|)
//     ranks, so no update costs O(|components|). Only float exhaustion of
//     a rank window renumbers all of G_c, as it always has.
package scc

import "sort"

// Result carries everything a Tarjan run produces: the components in
// completion order (reverse topological w.r.t. the condensation), and per
// node the visit number, lowlink, DFS-tree parent and subtree extent.
type Result[K comparable] struct {
	// Comps lists the strongly connected components in the order Tarjan
	// emits them: a component appears only after every component it can
	// reach, i.e. reverse topological order.
	Comps [][]K
	// Num is the DFS visit order (preorder), starting at 1.
	Num map[K]int
	// Low is Tarjan's lowlink.
	Low map[K]int
	// Parent is the DFS-tree parent; roots of DFS trees are absent.
	Parent map[K]K
	// Desc is the largest Num in the node's DFS subtree; with Num it gives
	// the preorder interval used to classify edges.
	Desc map[K]int
}

// Run performs an iterative Tarjan over the given nodes; succ enumerates
// direct successors. Nodes are explored in slice order, which makes runs
// deterministic when callers pass sorted nodes and sorted successors.
func Run[K comparable](nodes []K, succ func(v K, yield func(w K) bool)) *Result[K] {
	r := &Result[K]{
		Num:    make(map[K]int, len(nodes)),
		Low:    make(map[K]int, len(nodes)),
		Parent: make(map[K]K),
		Desc:   make(map[K]int, len(nodes)),
	}
	index := 1
	var stack []K
	onStack := make(map[K]bool, len(nodes))

	type frame struct {
		v     K
		succs []K
		i     int
	}
	var frames []frame

	visit := func(v K) {
		r.Num[v] = index
		r.Low[v] = index
		index++
		stack = append(stack, v)
		onStack[v] = true
		var ss []K
		succ(v, func(w K) bool {
			ss = append(ss, w)
			return true
		})
		frames = append(frames, frame{v: v, succs: ss})
	}

	for _, root := range nodes {
		if _, seen := r.Num[root]; seen {
			continue
		}
		visit(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			descended := false
			for f.i < len(f.succs) {
				w := f.succs[f.i]
				f.i++
				if _, seen := r.Num[w]; !seen {
					r.Parent[w] = f.v
					visit(w)
					descended = true
					break
				}
				if onStack[w] && r.Num[w] < r.Low[f.v] {
					r.Low[f.v] = r.Num[w]
				}
			}
			if descended {
				continue
			}
			// f.v is finished.
			v := f.v
			frames = frames[:len(frames)-1]
			r.Desc[v] = index - 1
			if r.Low[v] == r.Num[v] {
				var comp []K
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				r.Comps = append(r.Comps, comp)
			}
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if r.Low[v] < r.Low[p.v] {
					r.Low[p.v] = r.Low[v]
				}
			}
		}
	}
	return r
}

// EdgeType classifies edge (v, w) relative to the DFS forest of the run,
// following Tarjan's taxonomy quoted in Section 5.3 of the paper.
type EdgeType int8

// Edge classes.
const (
	TreeArc      EdgeType = iota // leads to a newly discovered node
	Frond                        // runs from a descendant to an ancestor
	ReverseFrond                 // runs from an ancestor to a descendant
	CrossLink                    // runs between unrelated subtrees
)

func (t EdgeType) String() string {
	switch t {
	case TreeArc:
		return "tree-arc"
	case Frond:
		return "frond"
	case ReverseFrond:
		return "reverse-frond"
	case CrossLink:
		return "cross-link"
	}
	return "unknown"
}

// EdgeType classifies the edge (v, w); both nodes must have been visited.
func (r *Result[K]) EdgeType(v, w K) EdgeType {
	if p, ok := r.Parent[w]; ok && p == v {
		return TreeArc
	}
	nv, nw := r.Num[v], r.Num[w]
	switch {
	case nw < nv && nv <= r.Desc[w]:
		return Frond
	case nv < nw && nw <= r.Desc[v]:
		return ReverseFrond
	default:
		return CrossLink
	}
}

// CompsSorted returns the components with members sorted and the list
// ordered by smallest member: the canonical form used to compare outputs.
func (r *Result[K]) CompsSorted(less func(a, b K) bool) [][]K {
	out := make([][]K, len(r.Comps))
	for i, c := range r.Comps {
		cc := make([]K, len(c))
		copy(cc, c)
		sort.Slice(cc, func(x, y int) bool { return less(cc[x], cc[y]) })
		out[i] = cc
	}
	sort.Slice(out, func(x, y int) bool { return less(out[x][0], out[y][0]) })
	return out
}
