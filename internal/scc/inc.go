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

// deltaTracker accumulates component births and deaths across one
// Apply*. A component ID stands for a new incarnation each time it is
// created; compRec.born ties an ID to the batch that created it.
type deltaTracker struct {
	batch   uint32
	created []CompID
	removed [][]graph.NodeID
}

// beginDelta starts tracking a new Apply*.
func (s *State) beginDelta() {
	s.dt.batch++
	if s.dt.batch == 0 { // wrapped: stale birth marks could collide
		for i := range s.comps {
			s.comps[i].born = 0
		}
		s.dt.batch = 1
	}
	s.dt.created = s.dt.created[:0]
	s.dt.removed = nil
}

// destroy records the death of c's current incarnation; call it before
// c's members change.
func (s *State) destroy(c CompID) {
	if cr := &s.comps[c]; cr.born == s.dt.batch {
		cr.born = 0 // born and died within this batch: invisible
		return
	}
	s.dt.removed = append(s.dt.removed, s.MembersOf(c))
}

// create records the birth of a new incarnation of c.
func (s *State) create(c CompID) {
	s.comps[c].born = s.dt.batch
	s.dt.created = append(s.dt.created, c)
}

// delta returns the tracked changes in canonical form.
func (s *State) delta() Delta {
	d := Delta{Removed: s.dt.removed}
	s.dt.removed = nil
	for _, c := range s.dt.created {
		// An ID recreated within the batch is listed once per creation;
		// report its surviving incarnation once.
		if cr := &s.comps[c]; cr.born == s.dt.batch && cr.head >= 0 {
			cr.born = 0
			d.Added = append(d.Added, s.MembersOf(c))
		}
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
	s.beginDelta()
	if err := s.applyInsert(u); err != nil {
		return Delta{}, err
	}
	return s.delta(), nil
}

// ApplyDelete processes a unit edge deletion with IncSCC−.
func (s *State) ApplyDelete(u graph.Update) (Delta, error) {
	s.beginDelta()
	if err := s.applyDelete(u); err != nil {
		return Delta{}, err
	}
	return s.delta(), nil
}

// ApplyUnitwise is IncSCCn: unit updates processed one at a time.
func (s *State) ApplyUnitwise(batch graph.Batch) (Delta, error) {
	s.beginDelta()
	for _, u := range batch {
		var err error
		if u.Op == graph.Insert {
			err = s.applyInsert(u)
		} else {
			err = s.applyDelete(u)
		}
		if err != nil {
			return Delta{}, err
		}
	}
	return s.delta(), nil
}

// intraUpdate is an intra-component update tagged with its component.
type intraUpdate struct {
	c CompID
	u graph.Update
}

// Apply processes a batch ΔG with IncSCC: intra-component updates are
// grouped per component (one scoped Tarjan each), then inter-component
// deletions update G_c counters, then inter-component insertions run the
// rank-window machinery with an already-satisfied fast path.
func (s *State) Apply(batch graph.Batch) (Delta, error) {
	s.beginDelta()
	// Node creation is a side effect of insertions even when the edge is
	// later cancelled by a deletion, so it runs on the raw batch.
	for _, u := range batch {
		if u.Op == graph.Insert {
			s.ensureNode(u.From, u.FromLabel)
			s.ensureNode(u.To, u.ToLabel)
		}
	}
	batch = batch.Normalize()
	for _, u := range batch {
		if u.Op == graph.Delete && !s.g.HasEdge(u.From, u.To) {
			return Delta{}, fmt.Errorf("scc: %w: delete of missing edge (%d,%d)", graph.ErrBadUpdate, u.From, u.To)
		}
	}
	// Classify against the components at batch start.
	var intra []intraUpdate
	var interDel, interIns graph.Batch
	for _, u := range batch {
		cv, cw := s.compOf(u.From), s.compOf(u.To)
		if cv == cw {
			intra = append(intra, intraUpdate{cv, u})
		} else if u.Op == graph.Delete {
			interDel = append(interDel, u)
		} else {
			interIns = append(interIns, u)
		}
	}
	// (a) Intra-component updates, grouped by component: apply the
	// group's edges, then one scoped Tarjan decides refresh vs split.
	slices.SortStableFunc(intra, func(a, b intraUpdate) int { return cmp.Compare(a.c, b.c) })
	for i := 0; i < len(intra); {
		c, j := intra[i].c, i
		var dels []graph.Update
		for ; j < len(intra) && intra[j].c == c; j++ {
			u := intra[j].u
			if err := s.g.Apply(u); err != nil {
				return Delta{}, err
			}
			if u.Op == graph.Delete {
				dels = append(dels, u)
			}
		}
		i = j
		if len(dels) == 0 {
			continue // insertions alone never change the partition
		}
		// chkReach the deletions together: each walk repairs the lowlinks
		// its deletion invalidated; surviving certificates mean no split
		// and no Tarjan at all. Tree-arc deletions break the DFS tree the
		// certificate rests on, so they force the full pass unless the
		// arc can be repaired.
		intact := !s.comps[c].dirty
		for _, u := range dels {
			if !intact {
				break
			}
			intact = s.deletionIntact(s.slot(u.From), s.slot(u.To), c)
		}
		if !intact {
			s.rescan(c)
		}
	}
	// (b) Inter-component deletions: G_c counter maintenance.
	for _, u := range interDel {
		if err := s.g.Apply(u); err != nil {
			return Delta{}, err
		}
		s.gcDecrement(s.compOf(u.From), s.compOf(u.To))
	}
	// (c) Inter-component insertions.
	for _, u := range interIns {
		if err := s.g.Apply(u); err != nil {
			return Delta{}, err
		}
		cv, cw := s.compOf(u.From), s.compOf(u.To)
		if cv == cw {
			// An earlier merge in this batch made the edge intra; the
			// merged component is already marked dirty, and intra
			// insertions need no further work.
			continue
		}
		s.processInterInsert(cv, cw)
	}
	return s.delta(), nil
}

// compOf returns the component of an existing node.
func (s *State) compOf(v graph.NodeID) CompID { return s.nodes[s.slot(v)].comp }

// deletionIntact runs the chkReach fast path for the deleted edge
// (v, w) inside the fresh component c (slots): a tree arc is re-parented,
// any other edge repairs lowlinks along the ancestor path. It reports
// whether the certificate survived, i.e. c is still strongly connected.
func (s *State) deletionIntact(v, w int32, c CompID) bool {
	if s.nodes[w].parent == v {
		return !s.noRepair && s.tryRepairTreeArc(v, w, c)
	}
	return s.lowlinkWalkIntact(v, c)
}

func (s *State) applyInsert(u graph.Update) error {
	if u.Op != graph.Insert {
		return fmt.Errorf("scc: applyInsert got %v", u)
	}
	s.ensureNode(u.From, u.FromLabel)
	s.ensureNode(u.To, u.ToLabel)
	if err := s.g.Apply(u); err != nil {
		return err
	}
	cv, cw := s.compOf(u.From), s.compOf(u.To)
	if cv == cw {
		// Fig. 7 lines 1–2: T := T ⊕ ΔG. No structural work is needed:
		// the partition is unchanged, and the stored lowlinks remain a
		// sound connectivity certificate (insertions only add paths), so
		// the next deletion's chkReach walk stays valid.
		return nil
	}
	s.processInterInsert(cv, cw)
	return nil
}

func (s *State) applyDelete(u graph.Update) error {
	if u.Op != graph.Delete {
		return fmt.Errorf("scc: applyDelete got %v", u)
	}
	if err := s.g.Apply(u); err != nil {
		return err
	}
	v, w := s.slot(u.From), s.slot(u.To)
	cv, cw := s.nodes[v].comp, s.nodes[w].comp
	if cv != cw {
		s.gcDecrement(cv, cw)
		return nil
	}
	// Intra-component deletion. A stale (dirty) component goes straight to
	// the scoped Tarjan, which also settles the deferred refresh. For a
	// fresh component, the chkReach fast path applies: if the certificate
	// survives, the component is intact and nothing else changes.
	if !s.comps[cv].dirty && s.deletionIntact(v, w, cv) {
		return nil
	}
	s.rescan(cv)
	return nil
}

// ensureNode creates v as a fresh singleton component when absent.
// A new component with no incident edges can take any unique rank; the top
// of the registry keeps the invariant trivially.
func (s *State) ensureNode(v graph.NodeID, label string) {
	if s.g.HasNode(v) {
		return
	}
	s.g.AddNode(v, label)
	sl := s.slot(v)
	if n := int(sl) + 1; n > len(s.nodes) {
		s.nodes = append(s.nodes, make([]nodeRec, n-len(s.nodes))...)
	}
	s.nodes[sl] = nodeRec{id: v, num: 1, low: 1, desc: 1, parent: -1}
	c := s.newComp(s.reg.max() + 1)
	s.link(c, sl)
	s.create(c)
	s.meter.AddEntries(1)
}

// gcDecrement lowers the multiplicity of G_c edge (cv, cw), removing it at
// zero. Removing edges can never violate the rank invariant.
func (s *State) gcDecrement(cv, cw CompID) {
	s.meter.AddEntries(1)
	s.gcAdd(cv, cw, -1)
}

// rescan runs a Tarjan pass scoped to c and then either refreshes c's
// certificate or splits c into the components found.
func (s *State) rescan(c CompID) {
	s.comps[c].dirty = false
	members := s.runScoped(c)
	if s.k.numComps() > 1 {
		s.splitComp(c, members)
	}
	s.store(members)
}

// runScoped runs the kernel on the subgraph induced by c's members and
// returns the members' slots in ascending ID order: member i is the
// kernel's local node i.
func (s *State) runScoped(c CompID) []int32 {
	members := make([]int32, 0, s.comps[c].size)
	s.eachMember(c, func(sl int32) { members = append(members, sl) })
	slices.SortFunc(members, func(a, b int32) int { return cmp.Compare(s.nodes[a].id, s.nodes[b].id) })
	s.meter.AddNodes(len(members))
	if len(s.local) < len(s.nodes) {
		s.local = make([]int32, len(s.nodes)+len(s.nodes)/4)
	}
	for i, sl := range members {
		s.local[sl] = int32(i)
	}
	k := &s.k
	k.reset(len(members))
	for _, sl := range members {
		s.g.Successors(s.nodes[sl].id, func(w graph.NodeID) bool {
			s.meter.AddEdges(1)
			if ws := s.slot(w); s.nodes[ws].comp == c {
				k.adj = append(k.adj, s.local[ws])
			}
			return true
		})
		k.mark()
	}
	k.run()
	return members
}

// store installs the last scoped run's num/lowlink/parent/desc for every
// member. Parent pointers crossing the run's components (possible after
// a split) are dropped.
func (s *State) store(members []int32) {
	k := &s.k
	for i, sl := range members {
		r := &s.nodes[sl]
		r.num, r.low, r.desc, r.parent = k.num[i], k.low[i], k.desc[i], -1
		if p := k.parent[i]; p >= 0 && k.comp[p] == k.comp[i] {
			r.parent = members[p]
		}
	}
	s.meter.AddEntries(len(members))
}

// recomputeLow evaluates Tarjan's lowlink recurrence for x against the
// current stored values, restricted to component c.
func (s *State) recomputeLow(x int32, c CompID) int32 {
	low := s.nodes[x].num
	s.g.Successors(s.nodes[x].id, func(w graph.NodeID) bool {
		s.meter.AddEdges(1)
		r := &s.nodes[s.slot(w)]
		if r.comp != c {
			return true
		}
		cand := r.num
		if r.parent == x {
			cand = r.low
		}
		low = min(low, cand)
		return true
	})
	return low
}

// lowlinkWalkIntact repairs lowlinks upward from v after a non-tree-edge
// deletion. It returns true when the certificate "low < num for every
// non-root" survives, i.e. the component is still strongly connected; false
// signals a split (caller re-runs Tarjan on the component). The cost is
// proportional to the repaired path — the affected area.
func (s *State) lowlinkWalkIntact(v int32, c CompID) bool {
	for x := v; ; {
		s.meter.AddNodes(1)
		newLow := s.recomputeLow(x, c)
		r := &s.nodes[x]
		if newLow == r.low {
			return true // change stopped propagating
		}
		r.low = newLow
		s.meter.AddEntries(1)
		if r.parent < 0 {
			return true // DFS root: low == num is normal there
		}
		if newLow == r.num {
			return false // non-root subtree lost its back reach: split
		}
		x = r.parent
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
func (s *State) tryRepairTreeArc(v, w int32, c CompID) bool {
	numW := s.nodes[w].num
	x := int32(-1)
	s.g.Predecessors(s.nodes[w].id, func(p graph.NodeID) bool {
		s.meter.AddEdges(1)
		ps := s.slot(p)
		if r := &s.nodes[ps]; r.comp == c && r.num < numW {
			x = ps
			return false
		}
		return true
	})
	if x < 0 {
		return false
	}
	s.nodes[w].parent = x
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
		r := s.comps[c].rank
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
// It runs its own kernel: the state's may hold a scoped run in use.
func (s *State) renumberAll() {
	ids := make([]CompID, 0, s.live)
	for c := range s.comps {
		if s.comps[c].head >= 0 {
			s.comps[c].local = int32(len(ids))
			ids = append(ids, CompID(c))
		}
	}
	var k kernel
	k.reset(len(ids))
	for _, c := range ids {
		s.comps[c].out.forEach(func(o CompID, _ int32) bool {
			k.adj = append(k.adj, s.comps[o].local)
			return true
		})
		k.mark()
	}
	k.run()
	s.reg.reset()
	for i := 0; i < k.numComps(); i++ {
		// G_c is acyclic here, so every component is a singleton.
		s.comps[ids[k.part(i)[0]]].rank = float64(i)
		s.reg.insert(float64(i))
		s.meter.AddEntries(1)
	}
}

// splitComp replaces component c by the parts of the last scoped run
// (≥ 2 components in reverse topological order), slotting their ranks
// into the window below c's old rank. The largest part keeps the ID c,
// so only the members of the other parts are relinked, and only the G_c
// edges at those members are moved: the cost is proportional to the
// nodes that change component and their degrees, not to |c| or to c's
// degree in G_c.
func (s *State) splitComp(c CompID, members []int32) {
	k := &s.k
	parts := k.numComps()
	s.destroy(c)
	ranks := s.splitRanks(c, parts)
	s.reg.remove(s.comps[c].rank)
	keep := 0
	for i := 1; i < parts; i++ {
		if len(k.part(i)) > len(k.part(keep)) {
			keep = i
		}
	}
	s.stamp()
	s.flag(c, inSplit)
	for i := 0; i < parts; i++ {
		id := c
		if i == keep {
			s.comps[c].rank = ranks[i]
			s.reg.insert(ranks[i])
		} else {
			id = s.newComp(ranks[i])
			s.flag(id, inSplit)
			for _, li := range k.part(i) {
				s.unlink(members[li])
				s.link(id, members[li])
			}
		}
		s.create(id)
		s.meter.AddEntries(len(k.part(i)))
	}
	// Move the G_c edges at the relinked members. An edge's old
	// contribution was (c or the outside component) on each end; edges
	// between two relinked members are visited once, from their source.
	for i := 0; i < parts; i++ {
		if i == keep {
			continue
		}
		for _, li := range k.part(i) {
			v := &s.nodes[members[li]]
			id := v.comp
			s.g.Successors(v.id, func(w graph.NodeID) bool {
				s.meter.AddEdges(1)
				cw := s.compOf(w)
				if !s.has(cw, inSplit) {
					s.gcAdd(c, cw, -1)
				}
				if cw != id {
					s.gcAdd(id, cw, 1)
				}
				return true
			})
			s.g.Predecessors(v.id, func(u graph.NodeID) bool {
				s.meter.AddEdges(1)
				cu := s.compOf(u)
				if cu != c && s.has(cu, inSplit) {
					return true // a relinked source: counted from its side
				}
				if cu != c {
					s.gcAdd(cu, c, -1)
				}
				s.gcAdd(cu, id, 1)
				return true
			})
		}
	}
}

// dfsGc explores G_c from start (forward when fwd, else backward), visiting
// only components whose rank is at least (forward) or at most (backward)
// bound, and flags every visited component with bit. This is DFSf/DFSb of
// Fig. 7.
func (s *State) dfsGc(start CompID, fwd bool, bound float64, bit uint8) []CompID {
	s.flag(start, bit)
	seen := []CompID{start}
	stack := []CompID{start}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.meter.AddNodes(1)
		adj := &s.comps[c].in
		if fwd {
			adj = &s.comps[c].out
		}
		adj.forEach(func(o CompID, _ int32) bool {
			s.meter.AddEdges(1)
			if s.has(o, bit) {
				return true
			}
			if r := s.comps[o].rank; (fwd && r >= bound) || (!fwd && r <= bound) {
				s.flag(o, bit)
				seen = append(seen, o)
				stack = append(stack, o)
			}
			return true
		})
	}
	return seen
}

// processInterInsert registers the inter-component edge (cv, cw) in G_c and
// restores the rank invariant (Fig. 7 lines 3–9).
func (s *State) processInterInsert(cv, cw CompID) {
	s.meter.AddEntries(1)
	fresh := s.comps[cv].out.count(cw) == 0
	s.gcAdd(cv, cw, 1)
	rv, rw := s.comps[cv].rank, s.comps[cw].rank
	if !fresh || rv > rw {
		return // multiplicity bump, or Fig. 7 line 3: order already correct
	}
	// Fig. 7 line 5: bounded bidirectional search. Forward from cw keeps
	// ranks ≥ rank(cv) (only cv itself has rank(cv)); backward from cv
	// keeps ranks ≤ rank(cw).
	s.stamp()
	affr := s.dfsGc(cw, true, rv, inFwd)
	affl := s.dfsGc(cv, false, rw, inBwd)
	cand := slices.Clone(affr)
	for _, z := range affl {
		if !s.has(z, inFwd) {
			cand = append(cand, z)
		}
	}
	slices.Sort(cand)
	// Fig. 7 line 6: Tarjan on the affected area (new edge included, it is
	// already in G_c).
	for i, z := range cand {
		s.comps[z].local = int32(i)
	}
	k := &s.k
	k.reset(len(cand))
	for _, z := range cand {
		s.comps[z].out.forEach(func(o CompID, _ int32) bool {
			if s.has(o, inFwd|inBwd) {
				k.adj = append(k.adj, s.comps[o].local)
			}
			return true
		})
		k.mark()
	}
	k.run()
	pool := make([]float64, 0, len(cand))
	for _, z := range cand {
		pool = append(pool, s.comps[z].rank)
	}
	slices.Sort(pool)
	for i := 0; i < k.numComps(); i++ {
		// All cycles pass through (cv,cw): at most one non-singleton.
		if p := k.part(i); len(p) > 1 {
			cycle := make([]CompID, len(p))
			for j, li := range p {
				cycle[j] = cand[li]
				s.flag(cycle[j], inCycle)
			}
			s.mergeComps(cycle, affr, affl, pool)
			return
		}
	}
	s.reallocRank(affr, affl, pool)
}

// byRank returns the components of set outside the cycle being merged,
// sorted by ascending rank.
func (s *State) byRank(set []CompID) []CompID {
	out := make([]CompID, 0, len(set))
	for _, c := range set {
		if !s.has(c, inCycle) {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b CompID) int { return cmp.Compare(s.comps[a].rank, s.comps[b].rank) })
	return out
}

// reallocRank implements Fig. 7 line 9: the pooled old ranks are reassigned
// in ascending order, first to aff_r (the forward region, which must sink
// below), then to aff_l, preserving relative order inside each region.
func (s *State) reallocRank(affr, affl []CompID, pool []float64) {
	i := 0
	for _, c := range append(s.byRank(affr), s.byRank(affl)...) {
		s.comps[c].rank = pool[i]
		i++
		s.meter.AddEntries(1)
	}
}

// mergeComps merges the cycle components into one (Fig. 7 lines 7–8),
// placing the merged node between the forward and backward regions and
// retiring surplus rank values. The largest cycle component keeps its ID,
// so only the other components' members are relinked and only their G_c
// edges are moved.
func (s *State) mergeComps(cycle, affr, affl []CompID, pool []float64) {
	rs := s.byRank(affr) // aff_r \ C
	ls := s.byRank(affl) // aff_l \ C
	// Reassign: aff_r\C take the smallest pool values, the merged node the
	// next one, aff_l\C the largest; the middle |C|-1 values retire.
	for _, v := range pool {
		s.reg.remove(v)
	}
	for i, c := range rs {
		s.comps[c].rank = pool[i]
		s.reg.insert(pool[i])
		s.meter.AddEntries(1)
	}
	mergedRank := pool[len(rs)]
	for j, c := range ls {
		v := pool[len(pool)-len(ls)+j]
		s.comps[c].rank = v
		s.reg.insert(v)
		s.meter.AddEntries(1)
	}
	keep := cycle[0]
	for _, c := range cycle {
		s.destroy(c)
		if sz, ksz := s.comps[c].size, s.comps[keep].size; sz > ksz || (sz == ksz && c < keep) {
			keep = c
		}
	}
	for _, c := range cycle {
		if c == keep {
			continue
		}
		cr := &s.comps[c]
		cr.out.forEach(func(o CompID, n int32) bool {
			s.comps[o].in.del(c)
			if !s.has(o, inCycle) {
				s.gcAdd(keep, o, n)
			}
			return true
		})
		cr.in.forEach(func(i CompID, n int32) bool {
			s.comps[i].out.del(c)
			if !s.has(i, inCycle) {
				s.gcAdd(i, keep, n)
			}
			return true
		})
		s.meter.AddEntries(int(cr.size))
		for cr.head >= 0 {
			sl := cr.head
			s.unlink(sl)
			s.link(keep, sl)
		}
		s.freeComp(c)
	}
	kr := &s.comps[keep]
	kr.rank = mergedRank
	s.reg.insert(mergedRank)
	// The num/lowlink refresh of the merged component (Fig. 7 line 8) is
	// deferred like intra insertions: a chain of k merges would otherwise
	// pay k scoped Tarjans over a growing component.
	kr.dirty = true
	s.create(keep)
}
