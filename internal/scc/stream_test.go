package scc_test

import (
	"math/rand"
	"slices"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/scc"
)

// TestStreamDifferential drives seeded update streams over densified
// dbpedia-sim (many small components) and livej-sim (one giant
// component, so deletions force large splits and random insertions large
// merges) through the three update paths — Apply, ApplyUnitwise, and
// Apply without tree-arc repair. After every batch each state must equal
// a from-scratch Tarjan run, pass CheckInvariants, and report a delta
// that turns the previous partition into the new one.
func TestStreamDifferential(t *testing.T) {
	for _, tc := range []struct {
		dataset string
		seed    int64
	}{
		{"dbpedia", 3},
		{"livej", 4},
	} {
		t.Run(tc.dataset, func(t *testing.T) {
			g, err := gen.Dataset(tc.dataset, 0.04, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			g = gen.Densify(g, g.NumEdges()/2, tc.seed+50)
			batches := streamBatches(g, 60, 16, tc.seed)

			apply := scc.Build(g.Clone(), nil)
			unit := scc.Build(g.Clone(), nil)
			noRepair := scc.Build(g.Clone(), nil)
			noRepair.SetTreeArcRepair(false)
			paths := []struct {
				name  string
				s     *scc.State
				apply func(graph.Batch) (scc.Delta, error)
			}{
				{"Apply", apply, apply.Apply},
				{"ApplyUnitwise", unit, unit.ApplyUnitwise},
				{"Apply/no-repair", noRepair, noRepair.Apply},
			}
			prev := scc.Components(g)
			splits, merges := 0, 0
			for i, b := range batches {
				if err := g.ApplyBatch(b); err != nil {
					t.Fatalf("batch %d: reference apply: %v", i, err)
				}
				want := scc.Components(g)
				for _, p := range paths {
					d, err := p.apply(b)
					if err != nil {
						t.Fatalf("batch %d: %s: %v", i, p.name, err)
					}
					if err := p.s.CheckInvariants(); err != nil {
						t.Fatalf("batch %d: %s: %v", i, p.name, err)
					}
					if got := p.s.ComponentsSorted(); !samePartition(got, want) {
						t.Fatalf("batch %d: %s: partition differs from Tarjan", i, p.name)
					}
					if err := checkDelta(prev, want, d); err != "" {
						t.Fatalf("batch %d: %s: %s", i, p.name, err)
					}
					if p.name == "Apply" {
						splits += spans(d.Removed, want)
						merges += spans(d.Added, prev)
					}
				}
				prev = want
			}
			if splits == 0 || merges == 0 {
				t.Fatalf("stream exercised %d splits and %d merges; want both", splits, merges)
			}
		})
	}
}

// streamBatches draws n batches of about k updates, valid in sequence
// over g. Each batch deletes every out-edge of one node (which splits the
// node off any component it was in), restores the previous batch's
// deleted out-edges (which merges it back), creates a node linked into
// the graph both ways, and fills up with uniformly random insertions
// (which violate ranks and merge) and deletions.
func streamBatches(g *graph.Graph, n, k int, seed int64) []graph.Batch {
	rng := rand.New(rand.NewSource(seed))
	sim := g.Clone()
	nodes := sim.NodesSorted()
	pick := func() graph.NodeID { return nodes[rng.Intn(len(nodes))] }
	fresh := sim.MaxNodeID()
	var restore []graph.Update
	out := make([]graph.Batch, n)
	for i := range out {
		var b graph.Batch
		add := func(u graph.Update) {
			if sim.Apply(u) == nil {
				b = append(b, u)
			}
		}
		for _, u := range restore {
			add(u)
		}
		restore = restore[:0]
		for tries := 0; tries < 20; tries++ {
			if x := pick(); sim.OutDegree(x) > 0 && sim.OutDegree(x) <= 6 {
				for _, w := range slices.Clone(sim.SuccessorsSorted(x)) {
					add(graph.Del(x, w))
					restore = append(restore, graph.Ins(x, w))
				}
				break
			}
		}
		fresh++
		add(graph.InsNew(pick(), fresh, "", "new"))
		add(graph.Ins(fresh, pick()))
		for len(b) < k {
			v, w := pick(), pick()
			if rng.Intn(2) == 0 {
				add(graph.Ins(v, w))
			} else if succ := sim.SuccessorsSorted(v); len(succ) > 0 {
				add(graph.Del(v, succ[rng.Intn(len(succ))]))
			}
		}
		out[i] = b
	}
	return out
}

func samePartition(a, b [][]graph.NodeID) bool {
	return slices.EqualFunc(a, b, func(x, y []graph.NodeID) bool { return slices.Equal(x, y) })
}

// spans counts the components of cs whose nodes lie in two or more
// components of partition p: split components when cs is a delta's
// Removed and p the new partition, merged ones when cs is its Added and p
// the old partition.
func spans(cs, p [][]graph.NodeID) int {
	of := make(map[graph.NodeID]int)
	for i, c := range p {
		for _, v := range c {
			of[v] = i
		}
	}
	n := 0
	for _, c := range cs {
		for _, v := range c[1:] {
			if i, ok := of[v]; ok && i != of[c[0]] {
				n++
				break
			}
		}
	}
	return n
}

// checkDelta verifies that d turns partition prev into next: every
// removed component was in prev, every added one is in next, and
// prev − Removed + Added = next.
func checkDelta(prev, next [][]graph.NodeID, d scc.Delta) string {
	key := func(c []graph.NodeID) string { return string(graph.AppendInts(nil, c)) }
	set := make(map[string]bool, len(prev))
	for _, c := range prev {
		set[key(c)] = true
	}
	for _, c := range d.Removed {
		if !set[key(c)] {
			return "delta removes a component that did not exist: " + key(c)
		}
		delete(set, key(c))
	}
	for _, c := range d.Added {
		if set[key(c)] {
			return "delta adds a component twice: " + key(c)
		}
		set[key(c)] = true
	}
	if len(set) != len(next) {
		return "delta does not account for the partition change"
	}
	for _, c := range next {
		if !set[key(c)] {
			return "delta misses component " + key(c)
		}
	}
	return ""
}
