package scc

import "incgraph/internal/graph"

// kernel is the array Tarjan behind Build, Components and every scoped
// pass of the incremental algorithms. It runs over a compact adjacency of
// local indices 0..n-1 — the successors of i are adj[off[i]:off[i+1]] —
// and starts a DFS from every unvisited index in ascending order, so a
// caller that numbers nodes in ascending NodeID order gets the same
// traversal as Run over sorted nodes. All outputs are indexed by local
// index and reused across runs.
type kernel struct {
	off, adj []int32
	// num is the DFS preorder number (from 1), low Tarjan's lowlink, desc
	// the largest num in the node's DFS subtree, parent the DFS-tree
	// parent (-1 for roots) and comp the node's component, numbered in
	// emission order.
	num, low, desc, parent, comp []int32
	// members groups the nodes by component in emission order (reverse
	// topological order of the condensation): component i is
	// members[starts[i]:starts[i+1]].
	members, starts []int32
	stack           []int32
	frames          []kframe
}

type kframe struct{ v, next int32 }

// reset prepares the adjacency for a new run over n nodes; callers then
// append each node's successors to adj and call mark after each node.
func (k *kernel) reset(n int) {
	k.off = append(k.off[:0], 0)
	k.adj = k.adj[:0]
	k.num = resize(k.num, n)
	k.low = resize(k.low, n)
	k.desc = resize(k.desc, n)
	k.parent = resize(k.parent, n)
	k.comp = resize(k.comp, n)
}

// mark closes the successor list of the next node.
func (k *kernel) mark() { k.off = append(k.off, int32(len(k.adj))) }

func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// numComps returns the number of components of the last run.
func (k *kernel) numComps() int { return len(k.starts) - 1 }

// part returns the members of component i of the last run.
func (k *kernel) part(i int) []int32 { return k.members[k.starts[i]:k.starts[i+1]] }

// run computes the strongly connected components of the adjacency built
// since reset.
func (k *kernel) run() {
	n := len(k.off) - 1
	clear(k.num)
	k.members = k.members[:0]
	k.starts = append(k.starts[:0], 0)
	stack, frames := k.stack[:0], k.frames[:0]
	index := int32(1)
	visit := func(v int32) {
		k.num[v], k.low[v] = index, index
		k.comp[v] = -1 // on the stack until its component is emitted
		index++
		stack = append(stack, v)
		frames = append(frames, kframe{v, k.off[v]})
	}
	for root := int32(0); root < int32(n); root++ {
		if k.num[root] != 0 {
			continue
		}
		k.parent[root] = -1
		visit(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.next < k.off[v+1] {
				w := k.adj[f.next]
				f.next++
				if k.num[w] == 0 {
					k.parent[w] = v
					visit(w)
				} else if k.comp[w] < 0 && k.num[w] < k.low[v] {
					k.low[v] = k.num[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			k.desc[v] = index - 1
			if k.low[v] == k.num[v] {
				c := int32(len(k.starts) - 1)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					k.comp[w] = c
					k.members = append(k.members, w)
					if w == v {
						break
					}
				}
				k.starts = append(k.starts, int32(len(k.members)))
			}
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; k.low[v] < k.low[p] {
					k.low[p] = k.low[v]
				}
			}
		}
	}
	k.stack, k.frames = stack, frames
}

// loadGraph fills the kernel's adjacency with all of g, numbering nodes
// by ascending ID. It returns the sorted nodes and each one's slot.
func (k *kernel) loadGraph(g *graph.Graph) (nodes []graph.NodeID, slots []int32) {
	nodes = g.NodesSortedParallel()
	slots = make([]int32, len(nodes))
	for i, v := range nodes {
		slots[i], _ = g.Slot(v)
	}
	// A successor's local index comes from a table indexed by ID when the
	// IDs are dense enough (at most four table entries per node), which
	// spares a graph lookup per edge; sparse IDs go through the slot.
	var byID, bySlot []int32
	var lo graph.NodeID
	if n := len(nodes); n > 0 && uint64(nodes[n-1])-uint64(nodes[0]) < 4*uint64(n) {
		lo = nodes[0]
		byID = make([]int32, nodes[n-1]-lo+1)
		for i, v := range nodes {
			byID[v-lo] = int32(i)
		}
	} else {
		bySlot = make([]int32, g.SlotCeil())
		for i, sl := range slots {
			bySlot[sl] = int32(i)
		}
	}
	k.reset(len(nodes))
	if cap(k.adj) < g.NumEdges() {
		k.adj = make([]int32, 0, g.NumEdges())
	}
	for _, v := range nodes {
		g.Successors(v, func(w graph.NodeID) bool {
			if byID != nil {
				k.adj = append(k.adj, byID[w-lo])
			} else {
				sl, _ := g.Slot(w)
				k.adj = append(k.adj, bySlot[sl])
			}
			return true
		})
		k.mark()
	}
	return nodes, slots
}

// Components computes SCC(G) from scratch with Tarjan — the batch
// baseline — in canonical form: members ascending, components ordered by
// smallest member. It runs the same kernel as Build.
func Components(g *graph.Graph) [][]graph.NodeID {
	var k kernel
	nodes, _ := k.loadGraph(g)
	k.run()
	ms := make([]member, len(nodes))
	for i, v := range nodes {
		ms[i] = member{v, k.comp[i]}
	}
	return splitRuns(layoutRuns(ms, k.numComps(), func(c int32) int { return len(k.part(int(c))) }))
}
