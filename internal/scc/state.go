package scc

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// CompID identifies a strongly connected component (a node of the
// contracted graph G_c). IDs are dense indices into the state's component
// table; an ID freed by a merge is reused by a later split or new node, so
// a CompID is meaningful only until the next Apply*.
type CompID int32

// State is the incrementally maintained SCC state: the partition of G into
// components, the per-node Tarjan structures (num, lowlink, DFS parent,
// subtree extent — local to each component), and the contracted graph G_c
// with per-edge multiplicity counters and topological ranks. The layout
// is described in the package comment.
//
// Rank invariant: for every edge (x, y) of G_c, rank(x) > rank(y). This is
// the "r(v) > r(v′) if (v, v′) is a cross-link in G_c" invariant of Section
// 5.3, maintained by the Pearce–Kelly-style window reallocation of IncSCC+.
//
// The state indexes its nodes by graph slot, so the graph must not be
// resharded (SetShards) and no node deleted while the state is in use.
type State struct {
	g *graph.Graph
	// nodes holds the per-node record by graph slot.
	nodes []nodeRec
	// comps is the component table by CompID; free lists the unused IDs
	// (head < 0) and live counts the others.
	comps []compRec
	free  []CompID
	live  int
	reg   rankRegistry
	// noRepair disables the tree-arc re-parenting fast path of IncSCC−
	// (every tree-arc deletion then runs a component-scoped Tarjan). It
	// exists for the ablation benchmark; see SetTreeArcRepair.
	noRepair bool
	meter    *cost.Meter
	// answer memoizes the WriteAnswer bytes against the graph mutation
	// generation: the partition only moves inside Apply*, which mutates
	// the graph first.
	answer graph.GenCache[[]byte]

	// Scratch reused across updates: the scoped Tarjan kernel, its
	// slot-to-local map (valid for the members of the scoped component),
	// the epoch that validates compRec.mark, and the delta tracker.
	k     kernel
	local []int32
	epoch uint32
	dt    deltaTracker
}

// nodeRec is the per-node state: its component, the Tarjan fields of the
// component's latest scoped pass, and its links in the component's
// circular member list.
type nodeRec struct {
	id             graph.NodeID
	comp           CompID
	num, low, desc int32
	parent         int32 // slot of the DFS parent inside the component; -1 if none
	next, prev     int32 // member list neighbors (slots)
}

// compRec is one component: its member list, rank and G_c adjacency.
type compRec struct {
	head    int32 // a member's slot; -1 when the ID is free
	size    int32
	rank    float64
	out, in gcAdj
	// dirty marks a component whose num/lowlink structures are stale
	// after intra-component insertions or a merge. Insertions cannot
	// change the partition, so the refresh is deferred until a deletion
	// needs the certificate — collapsing k insertions followed by a
	// deletion into one scoped Tarjan pass.
	dirty bool
	// flags and local are scratch of the current G_c search, merge or
	// split, valid while mark equals the state's epoch.
	flags uint8
	mark  uint32
	local int32
	// born is the delta tracker's batch number when this incarnation of
	// the ID was created (0 once reported).
	born uint32
}

// compRec.flags bits.
const (
	inFwd   uint8 = 1 << iota // reached by DFSf (aff_r)
	inBwd                     // reached by DFSb (aff_l)
	inCycle                   // part of the cycle being merged
	inSplit                   // one of the parts of the component being split
)

// Build runs Tarjan once over g and constructs the maintained state.
// The meter may be nil.
func Build(g *graph.Graph, meter *cost.Meter) *State {
	s := &State{g: g, meter: meter}
	s.reg.reset()
	// The DFS visits nodes in ascending ID order, like Run over
	// NodesSorted; IncSCC's certificate is order-dependent.
	var k kernel
	nodes, slots := k.loadGraph(g)
	k.run()
	meter.AddNodes(len(nodes))
	meter.AddEdges(g.NumEdges())
	s.nodes = make([]nodeRec, g.SlotCeil())
	for i, v := range nodes {
		r := &s.nodes[slots[i]]
		r.id = v
		r.num, r.low, r.desc, r.parent = k.num[i], k.low[i], k.desc[i], -1
		if p := k.parent[i]; p >= 0 && k.comp[p] == k.comp[i] {
			r.parent = slots[p]
		}
	}
	// Components arrive in reverse topological order; the output index is
	// the initial ID and topological rank ("the order of the scc ... in
	// the output sequence of Tarjan"). The table gets headroom: splits add
	// components from the first update on, and the first few should not
	// copy the whole table.
	nc := k.numComps()
	s.comps = make([]compRec, nc, nc+nc/8+16)
	s.live = nc
	for c := range s.comps {
		s.comps[c].head = -1
		s.comps[c].rank = float64(c)
		s.reg.insert(float64(c))
		for _, i := range k.part(c) {
			s.link(CompID(c), slots[i])
		}
	}
	s.buildGc(&k)
	return s
}

// buildGc counts the contracted-graph edges from the kernel's adjacency,
// without sorting and without a map: the out-edges of each component are
// gathered over its members, deduplicated by a per-component stamp, into
// one run per component; the in-edges are then placed by counting sort.
func (s *State) buildGc(k *kernel) {
	nc := len(s.comps)
	stamp := make([]int32, nc) // component+1 whose out-run holds the entry
	pos := make([]int32, nc)   // entry index in that run
	inStart := make([]int32, nc+1)
	outStart := make([]int32, nc+1)
	var out []gcEdge
	for c := 0; c < nc; c++ {
		outStart[c] = int32(len(out))
		for _, i := range k.part(c) {
			for _, j := range k.adj[k.off[i]:k.off[i+1]] {
				cj := k.comp[j]
				if int(cj) == c {
					continue
				}
				if stamp[cj] == int32(c)+1 {
					out[pos[cj]].n++
					continue
				}
				stamp[cj], pos[cj] = int32(c)+1, int32(len(out))
				out = append(out, gcEdge{CompID(cj), 1})
				inStart[cj+1]++
			}
		}
	}
	outStart[nc] = int32(len(out))
	for c := 0; c < nc; c++ {
		inStart[c+1] += inStart[c]
	}
	in := make([]gcEdge, len(out))
	fill := slices.Clone(inStart[:nc])
	for c := 0; c < nc; c++ {
		for _, e := range out[outStart[c]:outStart[c+1]] {
			in[fill[e.to]] = gcEdge{CompID(c), e.n}
			fill[e.to]++
		}
	}
	spreadRuns(out, outStart, func(c int) *gcAdj { return &s.comps[c].out })
	spreadRuns(in, inStart, func(c int) *gcAdj { return &s.comps[c].in })
}

// gcSlack is the spare capacity Build leaves after each adjacency vector.
const gcSlack = 2

// spreadRuns installs run c of flat (flat[start[c]:start[c+1]]) as the
// vector side(c). Small runs are copied into one shared backing array
// with gcSlack free entries after each, so a component's first new
// neighbors cost no allocation; each is capped at its own slack, so
// growth beyond it copies instead of overwriting the next run. Runs past
// gcPromote become maps.
func spreadRuns(flat []gcEdge, start []int32, side func(c int) *gcAdj) {
	n := 0
	for c := 0; c+1 < len(start); c++ {
		if l := start[c+1] - start[c]; l > 0 && l <= gcPromote {
			n += int(l) + gcSlack
		}
	}
	back := make([]gcEdge, 0, n)
	for c := 0; c+1 < len(start); c++ {
		run := flat[start[c]:start[c+1]]
		switch {
		case len(run) == 0:
		case len(run) > gcPromote:
			m := make(map[CompID]int32, len(run))
			for _, e := range run {
				m[e.to] = e.n
			}
			*side(c) = gcAdj{m: m}
		default:
			at := len(back)
			back = append(back, run...)
			back = back[:len(back)+gcSlack]
			*side(c) = gcAdj{list: back[at : at+len(run) : at+len(run)+gcSlack]}
		}
	}
}

// slot returns v's slot; v must exist.
func (s *State) slot(v graph.NodeID) int32 {
	sl, ok := s.g.Slot(v)
	if !ok {
		panic(fmt.Sprintf("scc: node %d is not in the graph", v))
	}
	return sl
}

// link appends the node at slot to c's member list.
func (s *State) link(c CompID, slot int32) {
	cr, r := &s.comps[c], &s.nodes[slot]
	r.comp = c
	if cr.head < 0 {
		cr.head, r.next, r.prev = slot, slot, slot
	} else {
		h := &s.nodes[cr.head]
		r.next, r.prev = cr.head, h.prev
		s.nodes[h.prev].next = slot
		h.prev = slot
	}
	cr.size++
}

// unlink removes the node at slot from its component's member list.
func (s *State) unlink(slot int32) {
	r := &s.nodes[slot]
	cr := &s.comps[r.comp]
	if r.next == slot {
		cr.head = -1
	} else {
		s.nodes[r.prev].next = r.next
		s.nodes[r.next].prev = r.prev
		if cr.head == slot {
			cr.head = r.next
		}
	}
	cr.size--
}

// eachMember calls fn for the slot of every member of c. fn must not
// relink the member it is given before returning.
func (s *State) eachMember(c CompID, fn func(slot int32)) {
	h := s.comps[c].head
	if h < 0 {
		return
	}
	for sl := h; ; {
		next := s.nodes[sl].next
		fn(sl)
		if next == h {
			return
		}
		sl = next
	}
}

// newComp takes a free component ID (or a new one) with the given rank.
func (s *State) newComp(rank float64) CompID {
	var c CompID
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		c = CompID(len(s.comps))
		s.comps = append(s.comps, compRec{})
	}
	s.comps[c] = compRec{head: -1, rank: rank}
	s.reg.insert(rank)
	s.live++
	return c
}

// freeComp releases an emptied component ID. Its rank must already be
// out of the registry.
func (s *State) freeComp(c CompID) {
	s.comps[c] = compRec{head: -1}
	s.free = append(s.free, c)
	s.live--
}

// gcAdd changes the multiplicity of G_c edge (x, y) by d on both sides.
func (s *State) gcAdd(x, y CompID, d int32) {
	s.comps[x].out.add(y, d)
	s.comps[y].in.add(x, d)
}

// stamp starts a new scratch epoch for compRec.flags and local.
func (s *State) stamp() {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale marks could collide
		for i := range s.comps {
			s.comps[i].mark = 0
		}
		s.epoch = 1
	}
}

// flag sets bits on c for the current epoch.
func (s *State) flag(c CompID, bits uint8) {
	cr := &s.comps[c]
	if cr.mark != s.epoch {
		cr.mark, cr.flags = s.epoch, 0
	}
	cr.flags |= bits
}

// has reports whether c carries any of bits in the current epoch.
func (s *State) has(c CompID, bits uint8) bool {
	cr := &s.comps[c]
	return cr.mark == s.epoch && cr.flags&bits != 0
}

// Graph returns the underlying graph (shared, mutated by Apply*).
func (s *State) Graph() *graph.Graph { return s.g }

// NumComponents returns |SCC(G)|.
func (s *State) NumComponents() int { return s.live }

// CompOf returns the component of v; ok is false when v is absent.
func (s *State) CompOf(v graph.NodeID) (CompID, bool) {
	sl, ok := s.g.Slot(v)
	if !ok {
		return 0, false
	}
	return s.nodes[sl].comp, true
}

// SameComp reports whether v and w are in the same component.
func (s *State) SameComp(v, w graph.NodeID) bool {
	cv, okv := s.CompOf(v)
	cw, okw := s.CompOf(w)
	return okv && okw && cv == cw
}

// Rank returns the topological rank of component c.
func (s *State) Rank(c CompID) float64 { return s.comps[c].rank }

// MembersOf returns the sorted members of component c.
func (s *State) MembersOf(c CompID) []graph.NodeID {
	out := make([]graph.NodeID, 0, s.comps[c].size)
	s.eachMember(c, func(sl int32) { out = append(out, s.nodes[sl].id) })
	slices.Sort(out)
	return out
}

// canonicalPartition lays out the maintained partition with layoutRuns.
// The node records are scanned in slot order and sorted by ID, with no
// per-node lookup in the graph.
func (s *State) canonicalPartition() (flat []graph.NodeID, starts []int) {
	ms := make([]member, 0, s.g.NumNodes())
	for i := range s.nodes {
		if r := &s.nodes[i]; r.num > 0 { // num is 0 only on unused slots
			ms = append(ms, member{r.id, int32(r.comp)})
		}
	}
	slices.SortFunc(ms, func(a, b member) int { return cmp.Compare(a.id, b.id) })
	return layoutRuns(ms, len(s.comps), func(c int32) int { return int(s.comps[c].size) })
}

// member is a node and the index of its component.
type member struct {
	id   graph.NodeID
	comp int32
}

// layoutRuns lays a partition out in canonical order — components ordered
// by smallest member, members ascending — as one flat member list plus
// the start offset of each component's run (starts ends with len(flat)).
// ms must be in ascending ID order, with components in [0, ncomp) of the
// given sizes. One pass places every node into its component's run,
// reserved when the component is first seen.
func layoutRuns(ms []member, ncomp int, size func(c int32) int) (flat []graph.NodeID, starts []int) {
	flat = make([]graph.NodeID, len(ms))
	cursor := make([]int32, ncomp) // next free index + 1; 0 = unseen
	next := 0
	for _, m := range ms {
		at := int(cursor[m.comp]) - 1
		if at < 0 {
			at = next
			starts = append(starts, at)
			next += size(m.comp)
		}
		flat[at] = m.id
		cursor[m.comp] = int32(at) + 2
	}
	return flat, append(starts, next)
}

// splitRuns cuts a canonical partition's flat list into one slice per
// component. The slices share flat's backing array, each capped at its
// own run.
func splitRuns(flat []graph.NodeID, starts []int) [][]graph.NodeID {
	out := make([][]graph.NodeID, len(starts)-1)
	for i := range out {
		out[i] = flat[starts[i]:starts[i+1]:starts[i+1]]
	}
	return out
}

// ComponentsSorted returns the current partition in canonical form:
// members sorted, components ordered by smallest member.
func (s *State) ComponentsSorted() [][]graph.NodeID {
	return splitRuns(s.canonicalPartition())
}

// WriteAnswer serializes SCC(G) in canonical text form: one line per
// component, "comp <v1> <v2> ...", members ascending, components ordered
// by smallest member. Identical partitions produce identical bytes
// whatever update path produced them; the durability layer's
// recovery-parity checks and the incgraphd answer dumps rely on this.
//
// The bytes are rendered once per graph generation, by the first read
// after a mutation (O(|V|)); later reads in that generation only write
// the cached slice. Safe under the read-share contract.
func (s *State) WriteAnswer(w io.Writer) error {
	_, err := w.Write(s.answer.Get(s.g, s.renderAnswer))
	return err
}

// renderAnswer builds the WriteAnswer bytes in one exactly sized buffer.
func (s *State) renderAnswer() []byte {
	flat, starts := s.canonicalPartition()
	comps := len(starts) - 1
	buf := make([]byte, 0, comps*len("comp\n")+graph.IntsLen(flat))
	for i := 0; i < comps; i++ {
		buf = append(buf, "comp"...)
		buf = graph.AppendInts(buf, flat[starts[i]:starts[i+1]])
		buf = append(buf, '\n')
	}
	return buf
}

// SetTreeArcRepair toggles the tree-arc re-parenting fast path (on by
// default). The ablation experiment of the harness measures its effect.
func (s *State) SetTreeArcRepair(enabled bool) { s.noRepair = !enabled }

// NumLow returns the maintained (num, lowlink) of v, local to v's
// component's most recent Tarjan pass.
func (s *State) NumLow(v graph.NodeID) (num, low int) {
	sl, ok := s.g.Slot(v)
	if !ok {
		return 0, 0
	}
	return int(s.nodes[sl].num), int(s.nodes[sl].low)
}

// CheckInvariants audits the whole state against a fresh Tarjan run:
// partition, contracted-graph counters, rank invariant and registry.
// Tests call it after every mutation batch.
func (s *State) CheckInvariants() error {
	// Member lists and node records are duals covering exactly the
	// graph's nodes (checked first: ComponentsSorted relies on them).
	count, live := 0, 0
	for c := range s.comps {
		cr := &s.comps[c]
		if cr.head < 0 {
			if cr.size != 0 || cr.out.len() != 0 || cr.in.len() != 0 {
				return fmt.Errorf("scc: free component %d still holds state", c)
			}
			continue
		}
		live++
		n := int32(0)
		var bad error
		s.eachMember(CompID(c), func(sl int32) {
			r := &s.nodes[sl]
			if bad == nil && (r.comp != CompID(c) || s.nodes[r.next].prev != sl) {
				bad = fmt.Errorf("scc: node %d in member list of %d but comp says %d", r.id, c, r.comp)
			}
			n++
		})
		if bad != nil {
			return bad
		}
		if n != cr.size {
			return fmt.Errorf("scc: component %d lists %d members, size says %d", c, n, cr.size)
		}
		count += int(n)
	}
	if count != s.g.NumNodes() || live != s.live || live+len(s.free) != len(s.comps) {
		return fmt.Errorf("scc: membership covers %d of %d nodes (%d live, %d counted, %d free of %d)",
			count, s.g.NumNodes(), s.live, live, len(s.free), len(s.comps))
	}
	used := 0
	for i := range s.nodes {
		if s.nodes[i].num > 0 {
			used++
		}
	}
	if used != s.g.NumNodes() {
		return fmt.Errorf("scc: %d slots hold a node record, graph has %d nodes", used, s.g.NumNodes())
	}
	var missing error
	s.g.Nodes(func(v graph.NodeID, _ string) bool {
		sl, _ := s.g.Slot(v)
		if int(sl) >= len(s.nodes) || s.nodes[sl].id != v || s.comps[s.nodes[sl].comp].head < 0 {
			missing = fmt.Errorf("scc: node %d has no component", v)
		}
		return missing == nil
	})
	if missing != nil {
		return missing
	}
	// Partition must match a fresh batch run.
	want := Components(s.g)
	got := s.ComponentsSorted()
	if len(want) != len(got) {
		return fmt.Errorf("scc: %d components, batch says %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(want[i], got[i]) {
			return fmt.Errorf("scc: component %d is %v, batch says %v", i, got[i], want[i])
		}
	}
	// G_c counters recomputed from scratch.
	type pair struct{ x, y CompID }
	wantGc := make(map[pair]int32)
	s.g.Edges(func(e graph.Edge) bool {
		cv, _ := s.CompOf(e.From)
		cw, _ := s.CompOf(e.To)
		if cv != cw {
			wantGc[pair{cv, cw}]++
		}
		return true
	})
	edges := 0
	for c := range s.comps {
		var bad error
		s.comps[c].out.forEach(func(o CompID, n int32) bool {
			edges++
			switch {
			case n <= 0:
				bad = fmt.Errorf("scc: non-positive counter %d on gc edge (%d,%d)", n, c, o)
			case wantGc[pair{CompID(c), o}] != n:
				bad = fmt.Errorf("scc: gc edge (%d,%d) counter %d, want %d", c, o, n, wantGc[pair{CompID(c), o}])
			case s.comps[o].in.count(CompID(c)) != n:
				bad = fmt.Errorf("scc: gc in/out counters disagree on (%d,%d)", c, o)
			case s.comps[c].rank <= s.comps[o].rank:
				bad = fmt.Errorf("scc: rank invariant broken on gc edge (%d,%d): %g <= %g",
					c, o, s.comps[c].rank, s.comps[o].rank)
			}
			return bad == nil
		})
		if bad != nil {
			return bad
		}
	}
	ins := 0
	for c := range s.comps {
		ins += s.comps[c].in.len()
	}
	if edges != len(wantGc) || ins != len(wantGc) {
		return fmt.Errorf("scc: %d out / %d in gc edges, want %d", edges, ins, len(wantGc))
	}
	// Rank uniqueness, and the registry holds exactly the rank values.
	seen := make(map[float64]CompID, s.live)
	for c := range s.comps {
		if s.comps[c].head < 0 {
			continue
		}
		r := s.comps[c].rank
		if prev, dup := seen[r]; dup {
			return fmt.Errorf("scc: duplicate rank %g on %d and %d", r, prev, c)
		}
		seen[r] = CompID(c)
	}
	if err := s.reg.check(seen); err != nil {
		return err
	}
	// Local Tarjan structures: every node carries a visit number, and a
	// tree parent lies inside its own component.
	for c := range s.comps {
		var bad error
		s.eachMember(CompID(c), func(sl int32) {
			r := &s.nodes[sl]
			if bad == nil && (r.num <= 0 || r.low <= 0) {
				bad = fmt.Errorf("scc: node %d missing num/lowlink", r.id)
			}
			if bad == nil && r.parent >= 0 && s.nodes[r.parent].comp != r.comp {
				bad = fmt.Errorf("scc: node %d has a tree parent outside its component", r.id)
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

// Condensation returns the current contracted graph G_c as a graph whose
// nodes are component IDs (labeled with the decimal member count) and whose
// edges are the contracted edges; multiplicities are dropped. The result is
// a snapshot — later updates do not affect it.
func (s *State) Condensation() *graph.Graph {
	out := graph.New()
	for c := range s.comps {
		if s.comps[c].head >= 0 {
			out.AddNode(graph.NodeID(c), fmt.Sprintf("%d", s.comps[c].size))
		}
	}
	for c := range s.comps {
		s.comps[c].out.forEach(func(o CompID, _ int32) bool {
			out.AddEdge(graph.NodeID(c), graph.NodeID(o))
			return true
		})
	}
	return out
}

// TopologicalComponents returns the component IDs sorted by descending
// rank: a valid topological order of the condensation (every contracted
// edge goes from an earlier to a later element).
func (s *State) TopologicalComponents() []CompID {
	out := make([]CompID, 0, s.live)
	for c := range s.comps {
		if s.comps[c].head >= 0 {
			out = append(out, CompID(c))
		}
	}
	slices.SortFunc(out, func(a, b CompID) int { return cmp.Compare(s.comps[b].rank, s.comps[a].rank) })
	return out
}
