package scc

import (
	"math"
	"math/rand"
	"testing"

	"incgraph/internal/graph"
)

func adj(g *graph.Graph) func(graph.NodeID, func(graph.NodeID) bool) {
	return func(v graph.NodeID, yield func(graph.NodeID) bool) {
		g.Successors(v, yield)
	}
}

func mkGraph(n int, edges [][2]int64) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), "x")
	}
	for _, e := range edges {
		g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	return g
}

func TestTarjanChainAndCycle(t *testing.T) {
	// 0→1→2 plus 2→0 makes one scc; 3→4 are singletons.
	g := mkGraph(5, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {3, 4}})
	res := Run(g.NodesSorted(), adj(g))
	comps := res.CompsSorted(func(a, b graph.NodeID) bool { return a < b })
	if len(comps) != 3 {
		t.Fatalf("comps = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 || comps[0][2] != 2 {
		t.Fatalf("cycle comp = %v", comps[0])
	}
}

func TestTarjanReverseTopologicalOrder(t *testing.T) {
	// DAG 0→1→2: Tarjan must emit sinks first.
	g := mkGraph(3, [][2]int64{{0, 1}, {1, 2}})
	res := Run(g.NodesSorted(), adj(g))
	if len(res.Comps) != 3 {
		t.Fatalf("comps = %v", res.Comps)
	}
	order := map[graph.NodeID]int{}
	for i, c := range res.Comps {
		order[c[0]] = i
	}
	g.Edges(func(e graph.Edge) bool {
		if order[e.From] <= order[e.To] {
			t.Fatalf("edge (%d,%d) violates reverse topological output", e.From, e.To)
		}
		return true
	})
}

func TestTarjanLowlinkCertificate(t *testing.T) {
	// In every multi-node scc, exactly the root has low == num.
	g := mkGraph(6, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}})
	res := Run(g.NodesSorted(), adj(g))
	for _, comp := range res.Comps {
		if len(comp) == 1 {
			continue
		}
		roots := 0
		for _, v := range comp {
			if res.Low[v] == res.Num[v] {
				roots++
			}
		}
		if roots != 1 {
			t.Fatalf("comp %v has %d roots", comp, roots)
		}
	}
}

func TestEdgeClassification(t *testing.T) {
	// A DFS from 0 over 0→1→2 with 2→0 (frond), 0→2 (reverse frond is
	// possible only if 2 discovered via 1), and cross-links between
	// subtrees.
	g := mkGraph(5, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {0, 2}, {0, 3}, {3, 4}, {4, 1}})
	res := Run([]graph.NodeID{0, 1, 2, 3, 4}, func(v graph.NodeID, yield func(graph.NodeID) bool) {
		for _, w := range g.SuccessorsSorted(v) { // deterministic DFS
			if !yield(w) {
				return
			}
		}
	})
	if tp := res.EdgeType(0, 1); tp != TreeArc {
		t.Fatalf("(0,1) = %v", tp)
	}
	if tp := res.EdgeType(1, 2); tp != TreeArc {
		t.Fatalf("(1,2) = %v", tp)
	}
	if tp := res.EdgeType(2, 0); tp != Frond {
		t.Fatalf("(2,0) = %v", tp)
	}
	if tp := res.EdgeType(0, 2); tp != ReverseFrond {
		t.Fatalf("(0,2) = %v", tp)
	}
	// 4 is in the subtree rooted at 3, discovered after 1's subtree; (4,1)
	// runs between subtrees.
	if tp := res.EdgeType(4, 1); tp != CrossLink {
		t.Fatalf("(4,1) = %v", tp)
	}
	for _, tp := range []EdgeType{TreeArc, Frond, ReverseFrond, CrossLink, EdgeType(9)} {
		if tp.String() == "" {
			t.Fatalf("EdgeType(%d) has no name", tp)
		}
	}
}

// kosaraju is an independent SCC oracle for property tests.
func kosaraju(g *graph.Graph) [][]graph.NodeID {
	var order []graph.NodeID
	seen := map[graph.NodeID]bool{}
	var dfs1 func(v graph.NodeID)
	dfs1 = func(v graph.NodeID) {
		seen[v] = true
		g.Successors(v, func(w graph.NodeID) bool {
			if !seen[w] {
				dfs1(w)
			}
			return true
		})
		order = append(order, v)
	}
	for _, v := range g.NodesSorted() {
		if !seen[v] {
			dfs1(v)
		}
	}
	compOf := map[graph.NodeID]int{}
	comp := 0
	var comps [][]graph.NodeID
	var dfs2 func(v graph.NodeID)
	dfs2 = func(v graph.NodeID) {
		compOf[v] = comp
		comps[comp] = append(comps[comp], v)
		g.Predecessors(v, func(w graph.NodeID) bool {
			if _, ok := compOf[w]; !ok {
				dfs2(w)
			}
			return true
		})
	}
	for i := len(order) - 1; i >= 0; i-- {
		if _, ok := compOf[order[i]]; !ok {
			comps = append(comps, nil)
			dfs2(order[i])
			comp++
		}
	}
	out := (&Result[graph.NodeID]{Comps: comps}).CompsSorted(func(a, b graph.NodeID) bool { return a < b })
	return out
}

func partitionsEqual(a, b [][]graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestTarjanAgainstKosarajuProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		m := rng.Intn(3 * n)
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode(graph.NodeID(i), "x")
		}
		for i := 0; i < m; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		got := Components(g)
		want := kosaraju(g)
		if !partitionsEqual(got, want) {
			t.Fatalf("seed %d: tarjan %v, kosaraju %v", seed, got, want)
		}
	}
}

func TestTarjanDeepRecursionSafe(t *testing.T) {
	// The iterative implementation must handle paths far deeper than any
	// goroutine stack would allow recursively.
	n := 200000
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), "x")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g.AddEdge(graph.NodeID(n-1), 0) // one giant cycle
	res := Run(g.NodesSorted(), adj(g))
	if len(res.Comps) != 1 || len(res.Comps[0]) != n {
		t.Fatalf("giant cycle not one scc: %d comps", len(res.Comps))
	}
}

// TestSparseNodeIDs covers graphs whose IDs are too sparse for the
// ID-indexed lookup of the kernel's load (negative, far apart, and at
// both ends of the int64 range, where the ID span overflows a signed
// difference): Components must match Kosaraju, and a state built on the
// graph must stay exact through updates.
func TestSparseNodeIDs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		ids := make([]graph.NodeID, n)
		for i := range ids {
			ids[i] = graph.NodeID(rng.Int63n(1<<60) - 1<<59)
		}
		if seed%2 == 0 {
			ids[0], ids[1] = math.MinInt64+1, math.MaxInt64-1
		}
		g := graph.New()
		for _, v := range ids {
			g.AddNode(v, "x")
		}
		for i := rng.Intn(3 * n); i > 0; i-- {
			g.AddEdge(ids[rng.Intn(n)], ids[rng.Intn(n)])
		}
		if got, want := Components(g), kosaraju(g); !partitionsEqual(got, want) {
			t.Fatalf("seed %d: tarjan %v, kosaraju %v", seed, got, want)
		}
		if seed%2 == 0 {
			continue // new IDs above MaxInt64-1 would overflow
		}
		s := mustState(t, g.Clone())
		if _, err := s.Apply(randomMutation(rng, g, 15)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
