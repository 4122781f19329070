package scc

import (
	"cmp"
	"fmt"
	"slices"

	"incgraph/internal/graph"
)

// This file implements the incremental side of SCC (Section 5.3):
//
//   - IncSCC+ (ApplyInsert, Fig. 7): an intra-component insertion refreshes
//     num/lowlink with a Tarjan pass scoped to the component; an
//     inter-component insertion that respects topological ranks only bumps
//     a counter of G_c; a rank violation triggers the bounded bidirectional
//     search DFSf/DFSb over G_c, cycle detection with Tarjan on the
//     affected area, merging, and reallocRank.
//   - IncSCC− (ApplyDelete): an inter-component deletion decrements a G_c
//     counter; an intra-component deletion of a non-tree edge first runs
//     the chkReach lowlink walk (cost proportional to the affected path),
//     falling back to a component-scoped Tarjan that performs the split.
//   - IncSCC  (Apply): batch updates, grouping all intra-component updates
//     of one component into a single scoped Tarjan pass and then handling
//     inter-component updates against G_c.
//   - IncSCCn (ApplyUnitwise): the unit-at-a-time baseline.
//
// The affected area AFF of the paper — changes to num/lowlink, their
// neighbors, and rank changes in G_c — is exactly what these routines
// touch, which is what makes them bounded relative to Tarjan.

// Delta describes changes ΔO to SCC(G): components that appeared and
// components that disappeared, in canonical (sorted) form.
type Delta struct {
	Added   [][]graph.NodeID
	Removed [][]graph.NodeID
}

// Empty reports whether the output was unaffected.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// deltaTracker accumulates component births and deaths across one Apply.
type deltaTracker struct {
	destroyed map[CompID][]graph.NodeID
	created   map[CompID]bool
}

func newDeltaTracker() *deltaTracker {
	return &deltaTracker{destroyed: make(map[CompID][]graph.NodeID), created: make(map[CompID]bool)}
}

func (dt *deltaTracker) destroy(c CompID, members map[graph.NodeID]struct{}) {
	if dt.created[c] {
		delete(dt.created, c) // born and died within this batch: invisible
		return
	}
	dt.destroyed[c] = sortedMembers(members)
}

func (dt *deltaTracker) create(c CompID) { dt.created[c] = true }

func (dt *deltaTracker) delta(s *State) Delta {
	var d Delta
	for c := range dt.created {
		if set, ok := s.members[c]; ok {
			d.Added = append(d.Added, sortedMembers(set))
		}
	}
	for _, m := range dt.destroyed {
		d.Removed = append(d.Removed, m)
	}
	canon := func(cs [][]graph.NodeID) {
		slices.SortFunc(cs, func(a, b []graph.NodeID) int { return cmp.Compare(a[0], b[0]) })
	}
	canon(d.Added)
	canon(d.Removed)
	return d
}

// ApplyInsert processes a unit edge insertion with IncSCC+ (Fig. 7).
func (s *State) ApplyInsert(u graph.Update) (Delta, error) {
	dt := newDeltaTracker()
	if err := s.applyInsert(u, dt); err != nil {
		return Delta{}, err
	}
	return dt.delta(s), nil
}

// ApplyDelete processes a unit edge deletion with IncSCC−.
func (s *State) ApplyDelete(u graph.Update) (Delta, error) {
	dt := newDeltaTracker()
	if err := s.applyDelete(u, dt); err != nil {
		return Delta{}, err
	}
	return dt.delta(s), nil
}

// ApplyUnitwise is IncSCCn: unit updates processed one at a time.
func (s *State) ApplyUnitwise(batch graph.Batch) (Delta, error) {
	dt := newDeltaTracker()
	for _, u := range batch {
		var err error
		if u.Op == graph.Insert {
			err = s.applyInsert(u, dt)
		} else {
			err = s.applyDelete(u, dt)
		}
		if err != nil {
			return Delta{}, err
		}
	}
	return dt.delta(s), nil
}

// Apply processes a batch ΔG with IncSCC: intra-component updates are
// grouped per component (one scoped Tarjan each), then inter-component
// deletions update G_c counters, then inter-component insertions run the
// rank-window machinery with an already-satisfied fast path.
func (s *State) Apply(batch graph.Batch) (Delta, error) {
	dt := newDeltaTracker()
	// Node creation is a side effect of insertions even when the edge is
	// later cancelled by a deletion, so it runs on the raw batch.
	for _, u := range batch {
		if u.Op == graph.Insert {
			s.ensureNode(u.From, u.FromLabel, dt)
			s.ensureNode(u.To, u.ToLabel, dt)
		}
	}
	batch = batch.Normalize()
	for _, u := range batch {
		if u.Op == graph.Delete && !s.g.HasEdge(u.From, u.To) {
			return Delta{}, fmt.Errorf("scc: %w: delete of missing edge (%d,%d)", graph.ErrBadUpdate, u.From, u.To)
		}
	}
	// Classify against the component map at batch start.
	intra := make(map[CompID]graph.Batch)
	var interDel, interIns graph.Batch
	for _, u := range batch {
		cv, cw := s.comp[u.From], s.comp[u.To]
		if cv == cw {
			intra[cv] = append(intra[cv], u)
		} else if u.Op == graph.Delete {
			interDel = append(interDel, u)
		} else {
			interIns = append(interIns, u)
		}
	}
	// (a) Intra-component updates, grouped: apply the group's edges, then
	// one scoped Tarjan decides refresh vs split.
	comps := make([]CompID, 0, len(intra))
	for c := range intra {
		comps = append(comps, c)
	}
	slices.Sort(comps)
	for _, c := range comps {
		var dels graph.Batch
		for _, u := range intra[c] {
			if err := s.g.Apply(u); err != nil {
				return Delta{}, err
			}
			if u.Op == graph.Delete {
				dels = append(dels, u)
			}
		}
		if len(dels) == 0 {
			continue // insertions alone never change the partition
		}
		// chkReach the deletions together: each walk repairs the lowlinks
		// its deletion invalidated; surviving certificates mean no split
		// and no Tarjan at all. Tree-arc deletions break the DFS tree the
		// certificate rests on, so they force the full pass.
		intact := !s.dirty[c]
		if intact {
			for _, u := range dels {
				if p, isTree := s.parent[u.To]; isTree && p == u.From {
					if s.noRepair || !s.tryRepairTreeArc(u.From, u.To, c) {
						intact = false
						break
					}
					continue
				}
				if !s.lowlinkWalkIntact(u.From, c) {
					intact = false
					break
				}
			}
		}
		if intact {
			continue
		}
		delete(s.dirty, c)
		set := s.members[c]
		res := s.runScoped(set)
		if len(res.Comps) == 1 {
			s.store(res, set)
		} else {
			s.splitComp(c, res, dt)
		}
	}
	// (b) Inter-component deletions: G_c counter maintenance.
	for _, u := range interDel {
		if err := s.g.Apply(u); err != nil {
			return Delta{}, err
		}
		s.gcDecrement(s.comp[u.From], s.comp[u.To])
	}
	// (c) Inter-component insertions.
	for _, u := range interIns {
		if err := s.g.Apply(u); err != nil {
			return Delta{}, err
		}
		cv, cw := s.comp[u.From], s.comp[u.To]
		if cv == cw {
			// An earlier merge in this batch made the edge intra; the
			// merged component is already marked dirty, and intra
			// insertions need no further work.
			continue
		}
		s.processInterInsert(cv, cw, dt)
	}
	return dt.delta(s), nil
}

func (s *State) applyInsert(u graph.Update, dt *deltaTracker) error {
	if u.Op != graph.Insert {
		return fmt.Errorf("scc: applyInsert got %v", u)
	}
	s.ensureNode(u.From, u.FromLabel, dt)
	s.ensureNode(u.To, u.ToLabel, dt)
	if err := s.g.Apply(u); err != nil {
		return err
	}
	cv, cw := s.comp[u.From], s.comp[u.To]
	if cv == cw {
		// Fig. 7 lines 1–2: T := T ⊕ ΔG. No structural work is needed:
		// the partition is unchanged, and the stored lowlinks remain a
		// sound connectivity certificate (insertions only add paths), so
		// the next deletion's chkReach walk stays valid.
		return nil
	}
	s.processInterInsert(cv, cw, dt)
	return nil
}

func (s *State) applyDelete(u graph.Update, dt *deltaTracker) error {
	if u.Op != graph.Delete {
		return fmt.Errorf("scc: applyDelete got %v", u)
	}
	if err := s.g.Apply(u); err != nil {
		return err
	}
	cv, cw := s.comp[u.From], s.comp[u.To]
	if cv != cw {
		s.gcDecrement(cv, cw)
		return nil
	}
	// Intra-component deletion. A stale (dirty) component goes straight to
	// the scoped Tarjan, which also settles the deferred refresh. For a
	// fresh component, the chkReach fast path applies: for a non-tree
	// edge, repair lowlinks along the ancestor path; if the certificate
	// survives, the component is intact and nothing else changes.
	if !s.dirty[cv] {
		if p, isTree := s.parent[u.To]; isTree && p == u.From {
			if !s.noRepair && s.tryRepairTreeArc(u.From, u.To, cv) {
				return nil
			}
		} else if s.lowlinkWalkIntact(u.From, cv) {
			return nil
		}
	}
	delete(s.dirty, cv)
	set := s.members[cv]
	res := s.runScoped(set)
	if len(res.Comps) == 1 {
		s.store(res, set)
		return nil
	}
	s.splitComp(cv, res, dt)
	return nil
}

// ensureNode creates v as a fresh singleton component when absent.
// A new component with no incident edges can take any unique rank; the top
// of the registry keeps the invariant trivially.
func (s *State) ensureNode(v graph.NodeID, label string, dt *deltaTracker) {
	if s.g.HasNode(v) {
		return
	}
	s.g.AddNode(v, label)
	id := s.next
	s.next++
	s.comp[v] = id
	s.members[id] = map[graph.NodeID]struct{}{v: {}}
	s.gcOut[id] = make(map[CompID]int)
	s.gcIn[id] = make(map[CompID]int)
	r := s.reg.max() + 1
	s.rank[id] = r
	s.reg.insert(r)
	s.num[v] = 1
	s.low[v] = 1
	s.desc[v] = 1
	delete(s.parent, v)
	dt.create(id)
	s.meter.AddEntries(1)
}

// gcDecrement lowers the multiplicity of G_c edge (cv, cw), removing it at
// zero. Removing edges can never violate the rank invariant.
func (s *State) gcDecrement(cv, cw CompID) {
	s.meter.AddEntries(1)
	if n := s.gcOut[cv][cw]; n > 1 {
		s.gcOut[cv][cw] = n - 1
		s.gcIn[cw][cv] = n - 1
	} else {
		delete(s.gcOut[cv], cw)
		delete(s.gcIn[cw], cv)
	}
}

// runScoped runs Tarjan on the subgraph induced by set.
func (s *State) runScoped(set map[graph.NodeID]struct{}) *Result[graph.NodeID] {
	nodes := sortedMembers(set)
	s.meter.AddNodes(len(nodes))
	return Run(nodes, func(v graph.NodeID, yield func(graph.NodeID) bool) {
		s.g.Successors(v, func(w graph.NodeID) bool {
			s.meter.AddEdges(1)
			if _, ok := set[w]; ok {
				return yield(w)
			}
			return true
		})
	})
}

// store installs a scoped run's num/lowlink/parent/desc for every node of
// set. Parent pointers crossing component boundaries (possible after a
// split) are dropped.
func (s *State) store(res *Result[graph.NodeID], set map[graph.NodeID]struct{}) {
	for v := range set {
		s.num[v] = res.Num[v]
		s.low[v] = res.Low[v]
		s.desc[v] = res.Desc[v]
		if p, ok := res.Parent[v]; ok && s.comp[p] == s.comp[v] {
			s.parent[v] = p
		} else {
			delete(s.parent, v)
		}
		s.meter.AddEntries(1)
	}
}

// recomputeLow evaluates Tarjan's lowlink recurrence for x against the
// current stored values, restricted to component c.
func (s *State) recomputeLow(x graph.NodeID, c CompID) int {
	low := s.num[x]
	s.g.Successors(x, func(w graph.NodeID) bool {
		s.meter.AddEdges(1)
		if s.comp[w] != c {
			return true
		}
		cand := s.num[w]
		if p, ok := s.parent[w]; ok && p == x {
			cand = s.low[w]
		}
		if cand < low {
			low = cand
		}
		return true
	})
	return low
}

// lowlinkWalkIntact repairs lowlinks upward from v after a non-tree-edge
// deletion. It returns true when the certificate "low < num for every
// non-root" survives, i.e. the component is still strongly connected; false
// signals a split (caller re-runs Tarjan on the component). The cost is
// proportional to the repaired path — the affected area.
func (s *State) lowlinkWalkIntact(v graph.NodeID, c CompID) bool {
	x := v
	for {
		s.meter.AddNodes(1)
		newLow := s.recomputeLow(x, c)
		if newLow == s.low[x] {
			return true // change stopped propagating
		}
		s.low[x] = newLow
		s.meter.AddEntries(1)
		p, ok := s.parent[x]
		if !ok {
			return true // DFS root: low == num is normal there
		}
		if newLow == s.num[x] {
			return false // non-root subtree lost its back reach: split
		}
		x = p
	}
}

// tryRepairTreeArc handles the deletion of tree arc (v, w) without a full
// Tarjan pass: it re-parents w to another in-neighbor x in the same
// component with num(x) < num(w), then repairs lowlinks upward from both
// the old parent (which lost a child) and the new one (which gained one).
//
// Soundness: num strictly increases along tree edges after any Tarjan pass,
// and choosing num(x) < num(w) preserves that invariant, so the tree
// remains an acyclic spanning arborescence of real edges rooted at the
// component root. The surviving certificate "low < num for every non-root"
// then still witnesses strong connectivity: each node reaches a lower-num
// node through real edges, hence the root by induction, and the root
// reaches everyone through the tree. (The preorder-interval property of
// desc is given up, which only weakens the split test towards conservative
// full passes — never towards wrong "intact" verdicts.)
func (s *State) tryRepairTreeArc(v, w graph.NodeID, c CompID) bool {
	numW := s.num[w]
	var x graph.NodeID
	found := false
	s.g.Predecessors(w, func(p graph.NodeID) bool {
		s.meter.AddEdges(1)
		if s.comp[p] == c && s.num[p] < numW {
			x = p
			found = true
			return false
		}
		return true
	})
	if !found {
		return false
	}
	s.parent[w] = x
	s.meter.AddEntries(1)
	return s.lowlinkWalkIntact(v, c) && s.lowlinkWalkIntact(x, c)
}

// splitRanks returns k strictly increasing rank values in (pred(r), r] for
// the parts of a split component of rank r, with the last value reusing r.
// External predecessors of the old component have rank > r and external
// successors have rank ≤ pred(r), so any values in this window keep the
// global invariant. Float exhaustion triggers a full renumbering.
func (s *State) splitRanks(c CompID, k int) []float64 {
	for attempt := 0; ; attempt++ {
		r := s.rank[c]
		l := s.reg.predecessor(r)
		step := (r - l) / float64(k)
		vals := make([]float64, k)
		ok := true
		for i := range vals {
			vals[i] = r - step*float64(k-1-i)
			if i == 0 && !(vals[0] > l) {
				ok = false
				break
			}
			if i > 0 && !(vals[i] > vals[i-1]) {
				ok = false
				break
			}
		}
		if ok {
			vals[k-1] = r // avoid float drift on the reused endpoint
			return vals
		}
		if attempt > 0 {
			panic("scc: rank renumbering failed to make room")
		}
		s.renumberAll()
	}
}

// renumberAll reassigns integer ranks 0..n-1 by a topological sort of G_c.
func (s *State) renumberAll() {
	ids := make([]CompID, 0, len(s.members))
	for c := range s.members {
		ids = append(ids, c)
	}
	slices.Sort(ids)
	res := Run(ids, func(c CompID, yield func(CompID) bool) {
		for o := range s.gcOut[c] {
			if !yield(o) {
				return
			}
		}
	})
	s.reg.vals = s.reg.vals[:0]
	for i, comp := range res.Comps {
		// G_c is acyclic here, so every component is a singleton.
		s.rank[comp[0]] = float64(i)
		s.reg.insert(float64(i))
		s.meter.AddEntries(1)
	}
}

// splitComp replaces component c by the parts found in res (≥ 2 components
// in reverse topological order), slotting their ranks into the window below
// c's old rank and rebuilding the incident G_c edges.
func (s *State) splitComp(c CompID, res *Result[graph.NodeID], dt *deltaTracker) {
	oldMembers := s.members[c]
	dt.destroy(c, oldMembers)
	ranks := s.splitRanks(c, len(res.Comps))
	oldRank := s.rank[c]
	// Detach c from G_c.
	for o := range s.gcOut[c] {
		delete(s.gcIn[o], c)
	}
	for i := range s.gcIn[c] {
		delete(s.gcOut[i], c)
	}
	delete(s.gcOut, c)
	delete(s.gcIn, c)
	delete(s.rank, c)
	delete(s.members, c)
	delete(s.dirty, c)
	s.reg.remove(oldRank)
	// Create the parts; reverse topological order matches ascending ranks.
	for i, comp := range res.Comps {
		id := s.next
		s.next++
		set := make(map[graph.NodeID]struct{}, len(comp))
		for _, v := range comp {
			set[v] = struct{}{}
			s.comp[v] = id
		}
		s.members[id] = set
		s.gcOut[id] = make(map[CompID]int)
		s.gcIn[id] = make(map[CompID]int)
		s.rank[id] = ranks[i]
		s.reg.insert(ranks[i])
		dt.create(id)
		s.meter.AddEntries(len(comp))
	}
	s.store(res, oldMembers)
	// Rebuild incident G_c counters: successors of members cover internal
	// part-to-part and outgoing edges; external predecessors cover incoming.
	for v := range oldMembers {
		cv := s.comp[v]
		s.g.Successors(v, func(w graph.NodeID) bool {
			s.meter.AddEdges(1)
			if cw := s.comp[w]; cw != cv {
				s.gcOut[cv][cw]++
				s.gcIn[cw][cv]++
			}
			return true
		})
		s.g.Predecessors(v, func(u graph.NodeID) bool {
			s.meter.AddEdges(1)
			if _, internal := oldMembers[u]; internal {
				return true
			}
			if cu := s.comp[u]; cu != cv {
				s.gcOut[cu][cv]++
				s.gcIn[cv][cu]++
			}
			return true
		})
	}
}

// dfsGc explores G_c from start (forward when fwd, else backward), visiting
// only nodes admitted by the rank window. This is DFSf/DFSb of Fig. 7.
func (s *State) dfsGc(start CompID, fwd bool, admit func(CompID) bool) map[CompID]bool {
	seen := map[CompID]bool{start: true}
	stack := []CompID{start}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.meter.AddNodes(1)
		var adj map[CompID]int
		if fwd {
			adj = s.gcOut[c]
		} else {
			adj = s.gcIn[c]
		}
		for o := range adj {
			s.meter.AddEdges(1)
			if !seen[o] && admit(o) {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	return seen
}

// processInterInsert registers the inter-component edge (cv, cw) in G_c and
// restores the rank invariant (Fig. 7 lines 3–9). It returns the merged
// component's ID when a cycle forced a merge, else nil.
func (s *State) processInterInsert(cv, cw CompID, dt *deltaTracker) *CompID {
	s.meter.AddEntries(1)
	if s.gcOut[cv][cw] > 0 {
		// Multiplicity bump; ranks already consistent.
		s.gcOut[cv][cw]++
		s.gcIn[cw][cv]++
		return nil
	}
	s.gcOut[cv][cw] = 1
	s.gcIn[cw][cv] = 1
	rv, rw := s.rank[cv], s.rank[cw]
	if rv > rw {
		return nil // Fig. 7 line 3: order already correct
	}
	// Fig. 7 line 5: bounded bidirectional search. Forward from cw keeps
	// ranks ≥ rank(cv) (only cv itself has rank(cv)); backward from cv
	// keeps ranks ≤ rank(cw).
	affr := s.dfsGc(cw, true, func(z CompID) bool { return s.rank[z] >= rv })
	affl := s.dfsGc(cv, false, func(z CompID) bool { return s.rank[z] <= rw })
	cand := make([]CompID, 0, len(affr)+len(affl))
	for z := range affr {
		cand = append(cand, z)
	}
	for z := range affl {
		if !affr[z] {
			cand = append(cand, z)
		}
	}
	slices.Sort(cand)
	candSet := make(map[CompID]bool, len(cand))
	for _, z := range cand {
		candSet[z] = true
	}
	// Fig. 7 line 6: Tarjan on the affected area (new edge included, it is
	// already in gcOut).
	res := Run(cand, func(c CompID, yield func(CompID) bool) {
		for o := range s.gcOut[c] {
			if candSet[o] {
				if !yield(o) {
					return
				}
			}
		}
	})
	var cycle []CompID
	for _, comp := range res.Comps {
		if len(comp) > 1 {
			cycle = comp
			break // all cycles pass through (cv,cw): at most one non-singleton
		}
	}
	pool := make([]float64, 0, len(cand))
	for _, z := range cand {
		pool = append(pool, s.rank[z])
	}
	slices.Sort(pool)
	if cycle == nil {
		s.reallocRank(affr, affl, pool)
		return nil
	}
	id := s.mergeComps(cycle, affr, affl, pool, dt)
	return &id
}

// byRank returns the members of set \ excl sorted by ascending rank.
func (s *State) byRank(set map[CompID]bool, excl map[CompID]bool) []CompID {
	out := make([]CompID, 0, len(set))
	for c := range set {
		if excl == nil || !excl[c] {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b CompID) int { return cmp.Compare(s.rank[a], s.rank[b]) })
	return out
}

// reallocRank implements Fig. 7 line 9: the pooled old ranks are reassigned
// in ascending order, first to aff_r (the forward region, which must sink
// below), then to aff_l, preserving relative order inside each region.
func (s *State) reallocRank(affr, affl map[CompID]bool, pool []float64) {
	rs := s.byRank(affr, nil)
	ls := s.byRank(affl, nil)
	i := 0
	for _, c := range rs {
		s.rank[c] = pool[i]
		i++
		s.meter.AddEntries(1)
	}
	for _, c := range ls {
		s.rank[c] = pool[i]
		i++
		s.meter.AddEntries(1)
	}
}

// mergeComps merges the cycle components into one (Fig. 7 lines 7–8),
// placing the merged node between the forward and backward regions and
// retiring surplus rank values.
func (s *State) mergeComps(cycle []CompID, affr, affl map[CompID]bool, pool []float64, dt *deltaTracker) CompID {
	cycleSet := make(map[CompID]bool, len(cycle))
	for _, c := range cycle {
		cycleSet[c] = true
	}
	rs := s.byRank(affr, cycleSet) // aff_r \ C
	ls := s.byRank(affl, cycleSet) // aff_l \ C
	// Reassign: aff_r\C take the smallest pool values, the merged node the
	// next one, aff_l\C the largest; the middle |C|-1 values retire.
	for _, v := range pool {
		s.reg.remove(v)
	}
	for i, c := range rs {
		s.rank[c] = pool[i]
		s.reg.insert(pool[i])
		s.meter.AddEntries(1)
	}
	mergedRank := pool[len(rs)]
	for j, c := range ls {
		v := pool[len(pool)-len(ls)+j]
		s.rank[c] = v
		s.reg.insert(v)
		s.meter.AddEntries(1)
	}
	// Build the merged component.
	id := s.next
	s.next++
	set := make(map[graph.NodeID]struct{})
	newOut := make(map[CompID]int)
	newIn := make(map[CompID]int)
	for _, c := range cycle {
		for o, n := range s.gcOut[c] {
			delete(s.gcIn[o], c)
			if !cycleSet[o] {
				newOut[o] += n
			}
		}
		for i, n := range s.gcIn[c] {
			delete(s.gcOut[i], c)
			if !cycleSet[i] {
				newIn[i] += n
			}
		}
		for v := range s.members[c] {
			set[v] = struct{}{}
			s.comp[v] = id
		}
		dt.destroy(c, s.members[c])
		delete(s.members, c)
		delete(s.gcOut, c)
		delete(s.gcIn, c)
		delete(s.rank, c)
		delete(s.dirty, c)
	}
	s.members[id] = set
	s.gcOut[id] = newOut
	s.gcIn[id] = newIn
	for o, n := range newOut {
		s.gcIn[o][id] = n
	}
	for i, n := range newIn {
		s.gcOut[i][id] = n
	}
	s.rank[id] = mergedRank
	s.reg.insert(mergedRank)
	dt.create(id)
	s.meter.AddEntries(len(set))
	// The num/lowlink refresh of the new component (Fig. 7 line 8) is
	// deferred like intra insertions: a chain of k merges would otherwise
	// pay k scoped Tarjans over a growing component.
	s.dirty[id] = true
	return id
}
