package scc

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// CompID identifies a strongly connected component (a node of the
// contracted graph G_c). IDs are minted fresh on every merge/split, so a
// CompID never changes meaning.
type CompID int64

// State is the incrementally maintained SCC state: the partition of G into
// components, the per-node Tarjan structures (num, lowlink, DFS parent,
// subtree extent — local to each component), and the contracted graph G_c
// with per-edge multiplicity counters and topological ranks.
//
// Rank invariant: for every edge (x, y) of G_c, rank(x) > rank(y). This is
// the "r(v) > r(v′) if (v, v′) is a cross-link in G_c" invariant of Section
// 5.3, maintained by the Pearce–Kelly-style window reallocation of IncSCC+.
type State struct {
	g       *graph.Graph
	comp    map[graph.NodeID]CompID
	members map[CompID]map[graph.NodeID]struct{}
	gcOut   map[CompID]map[CompID]int
	gcIn    map[CompID]map[CompID]int
	rank    map[CompID]float64
	reg     rankRegistry
	// Per-node Tarjan structures, numbered locally per component.
	num    map[graph.NodeID]int
	low    map[graph.NodeID]int
	parent map[graph.NodeID]graph.NodeID // DFS parent within the component
	desc   map[graph.NodeID]int
	// dirty marks components whose num/lowlink structures are stale after
	// intra-component insertions. Insertions cannot change the partition,
	// so the refresh is deferred until a deletion needs the certificate —
	// collapsing k insertions followed by a deletion into one scoped
	// Tarjan pass.
	dirty map[CompID]bool
	// noRepair disables the tree-arc re-parenting fast path of IncSCC−
	// (every tree-arc deletion then runs a component-scoped Tarjan). It
	// exists for the ablation benchmark; see SetTreeArcRepair.
	noRepair bool
	next     CompID
	meter    *cost.Meter
	// answer memoizes the WriteAnswer bytes against the graph mutation
	// generation: the partition only moves inside Apply*, which mutates
	// the graph first.
	answer graph.GenCache[[]byte]
}

// Build runs Tarjan once over g and constructs the maintained state.
// The meter may be nil.
func Build(g *graph.Graph, meter *cost.Meter) *State {
	s := &State{
		g:       g,
		comp:    make(map[graph.NodeID]CompID, g.NumNodes()),
		members: make(map[CompID]map[graph.NodeID]struct{}),
		gcOut:   make(map[CompID]map[CompID]int),
		gcIn:    make(map[CompID]map[CompID]int),
		rank:    make(map[CompID]float64),
		num:     make(map[graph.NodeID]int, g.NumNodes()),
		low:     make(map[graph.NodeID]int, g.NumNodes()),
		parent:  make(map[graph.NodeID]graph.NodeID),
		desc:    make(map[graph.NodeID]int, g.NumNodes()),
		dirty:   make(map[CompID]bool),
		meter:   meter,
	}
	// Tarjan needs the global ascending node order; collect it per shard
	// across the worker pool (identical output to NodesSorted). The DFS
	// itself stays sequential — IncSCC's certificate is order-dependent.
	res := Run(g.NodesSortedParallel(), func(v graph.NodeID, yield func(graph.NodeID) bool) {
		g.Successors(v, yield)
	})
	meter.AddNodes(g.NumNodes())
	meter.AddEdges(g.NumEdges())
	// Components arrive in reverse topological order; the output index is
	// the initial topological rank ("the order of the scc ... in the output
	// sequence of Tarjan").
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
		s.rank[id] = float64(i)
		s.reg.insert(float64(i))
	}
	// Adopt the global run's structures; they are consistent within each
	// component (local refreshes later renumber per component).
	for v, n := range res.Num {
		s.num[v] = n
		s.low[v] = res.Low[v]
		s.desc[v] = res.Desc[v]
	}
	for v, p := range res.Parent {
		if s.comp[v] == s.comp[p] {
			s.parent[v] = p
		}
	}
	// Contracted-graph edge counters.
	g.Edges(func(e graph.Edge) bool {
		cv, cw := s.comp[e.From], s.comp[e.To]
		if cv != cw {
			s.gcOut[cv][cw]++
			s.gcIn[cw][cv]++
		}
		return true
	})
	return s
}

// Components computes SCC(G) from scratch with Tarjan: the batch baseline.
func Components(g *graph.Graph) [][]graph.NodeID {
	res := Run(g.NodesSorted(), func(v graph.NodeID, yield func(graph.NodeID) bool) {
		g.Successors(v, yield)
	})
	return res.CompsSorted(func(a, b graph.NodeID) bool { return a < b })
}

// Graph returns the underlying graph (shared, mutated by Apply*).
func (s *State) Graph() *graph.Graph { return s.g }

// NumComponents returns |SCC(G)|.
func (s *State) NumComponents() int { return len(s.members) }

// CompOf returns the component of v; ok is false when v is absent.
func (s *State) CompOf(v graph.NodeID) (CompID, bool) {
	c, ok := s.comp[v]
	return c, ok
}

// SameComp reports whether v and w are in the same component.
func (s *State) SameComp(v, w graph.NodeID) bool {
	cv, okv := s.comp[v]
	cw, okw := s.comp[w]
	return okv && okw && cv == cw
}

// Rank returns the topological rank of component c.
func (s *State) Rank(c CompID) float64 { return s.rank[c] }

// MembersOf returns the sorted members of component c.
func (s *State) MembersOf(c CompID) []graph.NodeID {
	return sortedMembers(s.members[c])
}

func sortedMembers(set map[graph.NodeID]struct{}) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// canonicalPartition lays a partition out in canonical order — components
// ordered by smallest member, members ascending — as one flat member list
// plus the start offset of each component's run (starts ends with
// len(flat)). One pass over the ascending node IDs places every node into
// its component's run, reserved when the component is first seen, so no
// component list or member set is ever sorted. comp and members must be
// duals covering exactly nodes.
func canonicalPartition(nodes []graph.NodeID, comp map[graph.NodeID]CompID, members map[CompID]map[graph.NodeID]struct{}) (flat []graph.NodeID, starts []int) {
	flat = make([]graph.NodeID, len(nodes))
	starts = make([]int, 0, len(members)+1)
	// cursor holds the next free slot of each multi-node component seen so
	// far; a singleton's run is complete the moment it is reserved.
	cursor := make(map[CompID]int)
	next := 0
	for _, v := range nodes {
		c := comp[v]
		at, seen := cursor[c]
		if !seen {
			at = next
			size := len(members[c])
			starts = append(starts, at)
			next += size
			if size == 1 {
				flat[at] = v
				continue
			}
		}
		flat[at] = v
		cursor[c] = at + 1
	}
	return flat, append(starts, next)
}

// splitRuns cuts canonicalPartition's flat list into one slice per
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
	return splitRuns(canonicalPartition(s.g.NodesSorted(), s.comp, s.members))
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
	flat, starts := canonicalPartition(s.g.NodesSorted(), s.comp, s.members)
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
func (s *State) NumLow(v graph.NodeID) (num, low int) { return s.num[v], s.low[v] }

// CheckInvariants audits the whole state against a fresh Tarjan run:
// partition, contracted-graph counters, rank invariant and registry.
// Tests call it after every mutation batch.
func (s *State) CheckInvariants() error {
	// comp/members duals, covering exactly the graph's nodes (checked
	// first: ComponentsSorted relies on them).
	count := 0
	for c, set := range s.members {
		for v := range set {
			if s.comp[v] != c {
				return fmt.Errorf("scc: node %d in members of %d but comp says %d", v, c, s.comp[v])
			}
			count++
		}
	}
	if count != s.g.NumNodes() || len(s.comp) != s.g.NumNodes() {
		return fmt.Errorf("scc: membership covers %d of %d nodes", count, s.g.NumNodes())
	}
	var missing error
	s.g.Nodes(func(v graph.NodeID, _ string) bool {
		if _, ok := s.comp[v]; !ok {
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
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("scc: component %d size %d, batch says %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				return fmt.Errorf("scc: component %d differs at %d: %d vs %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	// G_c counters recomputed from scratch.
	wantOut := make(map[CompID]map[CompID]int)
	s.g.Edges(func(e graph.Edge) bool {
		cv, cw := s.comp[e.From], s.comp[e.To]
		if cv != cw {
			m := wantOut[cv]
			if m == nil {
				m = make(map[CompID]int)
				wantOut[cv] = m
			}
			m[cw]++
		}
		return true
	})
	for c, out := range s.gcOut {
		for o, n := range out {
			if n <= 0 {
				return fmt.Errorf("scc: non-positive counter %d on gc edge (%d,%d)", n, c, o)
			}
			if wantOut[c][o] != n {
				return fmt.Errorf("scc: gc edge (%d,%d) counter %d, want %d", c, o, n, wantOut[c][o])
			}
			if s.gcIn[o][c] != n {
				return fmt.Errorf("scc: gc in/out counters disagree on (%d,%d)", c, o)
			}
		}
	}
	for c, out := range wantOut {
		for o, n := range out {
			if s.gcOut[c][o] != n {
				return fmt.Errorf("scc: missing gc edge (%d,%d) (want counter %d)", c, o, n)
			}
		}
	}
	// Rank invariant and uniqueness.
	seen := make(map[float64]CompID, len(s.rank))
	for c := range s.members {
		r, ok := s.rank[c]
		if !ok {
			return fmt.Errorf("scc: component %d has no rank", c)
		}
		if prev, dup := seen[r]; dup {
			return fmt.Errorf("scc: duplicate rank %g on %d and %d", r, prev, c)
		}
		seen[r] = c
	}
	for c, out := range s.gcOut {
		for o := range out {
			if s.rank[c] <= s.rank[o] {
				return fmt.Errorf("scc: rank invariant broken on gc edge (%d,%d): %g <= %g",
					c, o, s.rank[c], s.rank[o])
			}
		}
	}
	if len(s.rank) != len(s.members) || len(s.gcOut) != len(s.members) || len(s.gcIn) != len(s.members) {
		return fmt.Errorf("scc: gc maps out of sync with members")
	}
	// Registry must hold exactly the rank values.
	if err := s.reg.check(seen); err != nil {
		return err
	}
	// Local Tarjan structures: num/low present for every node and lowlink
	// certifies strong connectivity (low < num for every non-root member of
	// a multi-node component).
	for v := range s.comp {
		if _, ok := s.num[v]; !ok {
			return fmt.Errorf("scc: node %d missing num", v)
		}
		if _, ok := s.low[v]; !ok {
			return fmt.Errorf("scc: node %d missing lowlink", v)
		}
	}
	return nil
}

// rankRegistry keeps the sorted multiset (in fact set) of live rank values,
// so splits can place part ranks strictly between the split component's
// rank and the next rank below it.
type rankRegistry struct {
	vals []float64 // sorted ascending
}

func (r *rankRegistry) insert(v float64) {
	i := sort.SearchFloat64s(r.vals, v)
	r.vals = append(r.vals, 0)
	copy(r.vals[i+1:], r.vals[i:])
	r.vals[i] = v
}

func (r *rankRegistry) remove(v float64) {
	i := sort.SearchFloat64s(r.vals, v)
	if i < len(r.vals) && r.vals[i] == v {
		r.vals = append(r.vals[:i], r.vals[i+1:]...)
	}
}

// predecessor returns the largest registered value strictly below v,
// or v-1 when none exists.
func (r *rankRegistry) predecessor(v float64) float64 {
	i := sort.SearchFloat64s(r.vals, v)
	if i == 0 {
		return v - 1
	}
	return r.vals[i-1]
}

// max returns the largest registered value, or 0 when empty.
func (r *rankRegistry) max() float64 {
	if len(r.vals) == 0 {
		return 0
	}
	return r.vals[len(r.vals)-1]
}

func (r *rankRegistry) check(live map[float64]CompID) error {
	if len(r.vals) != len(live) {
		return fmt.Errorf("scc: registry has %d ranks, live set has %d", len(r.vals), len(live))
	}
	for i, v := range r.vals {
		if i > 0 && r.vals[i-1] >= v {
			return fmt.Errorf("scc: registry not strictly sorted at %d", i)
		}
		if _, ok := live[v]; !ok {
			return fmt.Errorf("scc: registry value %g not live", v)
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
	for c, set := range s.members {
		out.AddNode(graph.NodeID(c), fmt.Sprintf("%d", len(set)))
	}
	for c, adj := range s.gcOut {
		for o := range adj {
			out.AddEdge(graph.NodeID(c), graph.NodeID(o))
		}
	}
	return out
}

// TopologicalComponents returns the component IDs sorted by descending
// rank: a valid topological order of the condensation (every contracted
// edge goes from an earlier to a later element).
func (s *State) TopologicalComponents() []CompID {
	out := make([]CompID, 0, len(s.members))
	for c := range s.members {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b CompID) int { return cmp.Compare(s.rank[b], s.rank[a]) })
	return out
}
