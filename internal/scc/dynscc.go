package scc

import (
	"fmt"
	"slices"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// DynSCC is the dynamic-SCC comparison baseline of the paper's experiments
// (a combination of the incremental algorithm of Haeupler et al. [26] and
// the decremental algorithm of Łącki [32]). We implement a simplified
// stand-in with the same interface and the characteristic cost profile the
// paper observes: it maintains its reachability structures with full
// (unpruned) searches over the contracted graph even when the output is
// stable, and always re-runs a component-scoped Tarjan on intra-component
// deletions. Those two traits — work proportional to the contracted graph
// rather than to the change, and no certificate reuse on deletion — are
// what the paper's comparison measures, so the stand-in keeps them and
// omits the original algorithms' amortization machinery.
type DynSCC struct {
	g       *graph.Graph
	comp    map[graph.NodeID]CompID
	members map[CompID]map[graph.NodeID]struct{}
	gcOut   map[CompID]map[CompID]int
	gcIn    map[CompID]map[CompID]int
	next    CompID
	meter   *cost.Meter
}

// BuildDyn constructs the baseline state with one Tarjan pass.
func BuildDyn(g *graph.Graph, meter *cost.Meter) *DynSCC {
	d := &DynSCC{
		g:       g,
		comp:    make(map[graph.NodeID]CompID, g.NumNodes()),
		members: make(map[CompID]map[graph.NodeID]struct{}),
		gcOut:   make(map[CompID]map[CompID]int),
		gcIn:    make(map[CompID]map[CompID]int),
		meter:   meter,
	}
	res := Run(g.NodesSorted(), func(v graph.NodeID, yield func(graph.NodeID) bool) {
		g.Successors(v, yield)
	})
	for _, comp := range res.Comps {
		id := d.next
		d.next++
		set := make(map[graph.NodeID]struct{}, len(comp))
		for _, v := range comp {
			set[v] = struct{}{}
			d.comp[v] = id
		}
		d.members[id] = set
		d.gcOut[id] = make(map[CompID]int)
		d.gcIn[id] = make(map[CompID]int)
	}
	g.Edges(func(e graph.Edge) bool {
		cv, cw := d.comp[e.From], d.comp[e.To]
		if cv != cw {
			d.gcOut[cv][cw]++
			d.gcIn[cw][cv]++
		}
		return true
	})
	return d
}

// Apply processes a batch one unit at a time (the baseline has no batch
// optimization).
func (d *DynSCC) Apply(batch graph.Batch) error {
	for _, u := range batch {
		var err error
		if u.Op == graph.Insert {
			err = d.insert(u)
		} else {
			err = d.delete(u)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *DynSCC) insert(u graph.Update) error {
	for _, end := range []struct {
		v graph.NodeID
		l string
	}{{u.From, u.FromLabel}, {u.To, u.ToLabel}} {
		if !d.g.HasNode(end.v) {
			d.g.AddNode(end.v, end.l)
			id := d.next
			d.next++
			d.comp[end.v] = id
			d.members[id] = map[graph.NodeID]struct{}{end.v: {}}
			d.gcOut[id] = make(map[CompID]int)
			d.gcIn[id] = make(map[CompID]int)
		}
	}
	if err := d.g.Apply(u); err != nil {
		return err
	}
	cv, cw := d.comp[u.From], d.comp[u.To]
	if cv == cw {
		return nil
	}
	fresh := d.gcOut[cv][cw] == 0
	d.gcOut[cv][cw]++
	d.gcIn[cw][cv]++
	if !fresh {
		return nil
	}
	// Unpruned forward search from cw: the "maintenance even when stable"
	// cost of the baseline.
	fwd := d.bfs(cw, true)
	if !fwd[cv] {
		return nil
	}
	bwd := d.bfs(cv, false)
	var cycle []CompID
	for c := range fwd {
		if bwd[c] {
			cycle = append(cycle, c)
		}
	}
	d.merge(cycle)
	return nil
}

func (d *DynSCC) bfs(start CompID, fwd bool) map[CompID]bool {
	seen := map[CompID]bool{start: true}
	queue := []CompID{start}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		d.meter.AddNodes(1)
		adj := d.gcOut[c]
		if !fwd {
			adj = d.gcIn[c]
		}
		for o := range adj {
			d.meter.AddEdges(1)
			if !seen[o] {
				seen[o] = true
				queue = append(queue, o)
			}
		}
	}
	return seen
}

func (d *DynSCC) merge(cycle []CompID) {
	cycleSet := make(map[CompID]bool, len(cycle))
	for _, c := range cycle {
		cycleSet[c] = true
	}
	id := d.next
	d.next++
	set := make(map[graph.NodeID]struct{})
	newOut := make(map[CompID]int)
	newIn := make(map[CompID]int)
	for _, c := range cycle {
		for o, n := range d.gcOut[c] {
			delete(d.gcIn[o], c)
			if !cycleSet[o] {
				newOut[o] += n
			}
		}
		for i, n := range d.gcIn[c] {
			delete(d.gcOut[i], c)
			if !cycleSet[i] {
				newIn[i] += n
			}
		}
		for v := range d.members[c] {
			set[v] = struct{}{}
			d.comp[v] = id
		}
		delete(d.members, c)
		delete(d.gcOut, c)
		delete(d.gcIn, c)
	}
	d.members[id] = set
	d.gcOut[id] = newOut
	d.gcIn[id] = newIn
	for o, n := range newOut {
		d.gcIn[o][id] = n
	}
	for i, n := range newIn {
		d.gcOut[i][id] = n
	}
	d.meter.AddEntries(len(set))
}

func (d *DynSCC) delete(u graph.Update) error {
	if err := d.g.Apply(u); err != nil {
		return err
	}
	cv, cw := d.comp[u.From], d.comp[u.To]
	if cv != cw {
		if n := d.gcOut[cv][cw]; n > 1 {
			d.gcOut[cv][cw] = n - 1
			d.gcIn[cw][cv] = n - 1
		} else {
			delete(d.gcOut[cv], cw)
			delete(d.gcIn[cw], cv)
		}
		return nil
	}
	// Always recompute the touched component.
	set := d.members[cv]
	nodes := sortedMembers(set)
	d.meter.AddNodes(len(nodes))
	res := Run(nodes, func(v graph.NodeID, yield func(graph.NodeID) bool) {
		d.g.Successors(v, func(w graph.NodeID) bool {
			d.meter.AddEdges(1)
			if _, ok := set[w]; ok {
				return yield(w)
			}
			return true
		})
	})
	if len(res.Comps) == 1 {
		return nil
	}
	// Split: replace cv by the parts and rebuild incident counters.
	for o := range d.gcOut[cv] {
		delete(d.gcIn[o], cv)
	}
	for i := range d.gcIn[cv] {
		delete(d.gcOut[i], cv)
	}
	delete(d.gcOut, cv)
	delete(d.gcIn, cv)
	delete(d.members, cv)
	for _, comp := range res.Comps {
		id := d.next
		d.next++
		ns := make(map[graph.NodeID]struct{}, len(comp))
		for _, v := range comp {
			ns[v] = struct{}{}
			d.comp[v] = id
		}
		d.members[id] = ns
		d.gcOut[id] = make(map[CompID]int)
		d.gcIn[id] = make(map[CompID]int)
	}
	for v := range set {
		nv := d.comp[v]
		d.g.Successors(v, func(w graph.NodeID) bool {
			if cw := d.comp[w]; cw != nv {
				d.gcOut[nv][cw]++
				d.gcIn[cw][nv]++
			}
			return true
		})
		d.g.Predecessors(v, func(p graph.NodeID) bool {
			if _, internal := set[p]; internal {
				return true
			}
			if cp := d.comp[p]; cp != nv {
				d.gcOut[cp][nv]++
				d.gcIn[nv][cp]++
			}
			return true
		})
	}
	return nil
}

// ComponentsSorted returns the partition in canonical form.
func (d *DynSCC) ComponentsSorted() [][]graph.NodeID {
	return splitRuns(mapPartition(d.g.NodesSorted(), d.comp, d.members))
}

// NumComponents returns the current component count.
func (d *DynSCC) NumComponents() int { return len(d.members) }

// Check verifies the partition against a fresh Tarjan run.
func (d *DynSCC) Check() error {
	want := Components(d.g)
	got := d.ComponentsSorted()
	if len(want) != len(got) {
		return fmt.Errorf("dynscc: %d components, batch says %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("dynscc: component %d size mismatch", i)
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				return fmt.Errorf("dynscc: component %d differs", i)
			}
		}
	}
	return nil
}

func sortedMembers(set map[graph.NodeID]struct{}) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// mapPartition is State.canonicalPartition over DynSCC's maps: comp and
// members must be duals covering exactly nodes (ascending).
func mapPartition(nodes []graph.NodeID, comp map[graph.NodeID]CompID, members map[CompID]map[graph.NodeID]struct{}) (flat []graph.NodeID, starts []int) {
	flat = make([]graph.NodeID, len(nodes))
	starts = make([]int, 0, len(members)+1)
	cursor := make(map[CompID]int)
	next := 0
	for _, v := range nodes {
		c := comp[v]
		at, seen := cursor[c]
		if !seen {
			at = next
			starts = append(starts, at)
			next += len(members[c])
		}
		flat[at] = v
		cursor[c] = at + 1
	}
	return flat, append(starts, next)
}
