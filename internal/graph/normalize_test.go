package graph

// Tests of the batch-preparation fast paths: Normalize, Split and
// ValidateBatch against the map-based references they replaced, their
// aliasing contract (cap == len on every returned slice, so appends never
// write into a shared batch), and their allocation budget on a
// serving-sized batch.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refNormalize is the map-based Normalize: keep the last update on each
// edge when its op matches the first update's on that edge.
func refNormalize(b Batch) Batch {
	first := make(map[Edge]Op, len(b))
	last := make(map[Edge]int, len(b))
	for i, u := range b {
		if _, ok := first[u.Edge()]; !ok {
			first[u.Edge()] = u.Op
		}
		last[u.Edge()] = i
	}
	var out Batch
	for i, u := range b {
		if last[u.Edge()] == i && first[u.Edge()] == u.Op {
			out = append(out, u)
		}
	}
	return out
}

// refSplit is the append-based Split.
func refSplit(b Batch) (ins, del Batch) {
	for _, u := range b {
		if u.Op == Insert {
			ins = append(ins, u)
		} else {
			del = append(del, u)
		}
	}
	return ins, del
}

// randomValidBatch draws n updates over edges among `nodes` nodes, each
// valid against the edge set the previous ones produced: a small node
// pool makes repeated edges and cancelling pairs common, a large one
// makes them rare. Inserts carry labels so value equality covers them.
func randomValidBatch(rng *rand.Rand, n, nodes int) Batch {
	present := make(map[Edge]bool)
	for i := 0; i < min(nodes, 64); i++ {
		if rng.Intn(3) == 0 {
			present[Edge{NodeID(i), NodeID(rng.Intn(nodes))}] = true
		}
	}
	b := make(Batch, 0, n)
	for len(b) < n {
		e := Edge{NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))}
		if present[e] {
			b = append(b, Del(e.From, e.To))
		} else {
			b = append(b, InsNew(e.From, e.To, "a", "b"))
		}
		present[e] = !present[e]
	}
	return b
}

func TestNormalizeSplitMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 15, 16, 17, 63, 64, 65, 100, 200}
	for trial := 0; trial < 400; trial++ {
		n := sizes[trial%len(sizes)]
		nodes := []int{3, 8, 40, 1 << 20}[trial%4]
		b := randomValidBatch(rng, n, nodes)
		orig := slices.Clone(b)

		norm := b.Normalize()
		if want := refNormalize(b); !slices.Equal(norm, want) {
			t.Fatalf("n=%d nodes=%d: Normalize = %v, want %v", n, nodes, norm, want)
		}
		if cap(norm) != len(norm) {
			t.Fatalf("n=%d: Normalize cap %d != len %d", n, cap(norm), len(norm))
		}
		if len(norm) == len(b) && len(b) > 0 && &norm[0] != &b[0] {
			t.Fatalf("n=%d: Normalize copied a batch with no repeated edge", n)
		}

		for _, in := range []Batch{b, norm} {
			ins, del := in.Split()
			wantIns, wantDel := refSplit(in)
			if !slices.Equal(ins, wantIns) || !slices.Equal(del, wantDel) {
				t.Fatalf("n=%d: Split = %v / %v, want %v / %v", n, ins, del, wantIns, wantDel)
			}
			if (ins == nil) != (wantIns == nil) || (del == nil) != (wantDel == nil) {
				t.Fatalf("n=%d: Split nil-ness: ins %v del %v, want ins %v del %v",
					n, ins == nil, del == nil, wantIns == nil, wantDel == nil)
			}
			if cap(ins) != len(ins) || cap(del) != len(del) {
				t.Fatalf("n=%d: Split caps %d/%d, lens %d/%d", n, cap(ins), cap(del), len(ins), len(del))
			}
			// Appending to either half must leave the other and the input alone.
			before := slices.Clone(del)
			_ = append(ins, Ins(-1, -1))
			if !slices.Equal(del, before) {
				t.Fatalf("n=%d: append to ins wrote into del", n)
			}
		}
		_ = append(norm, Ins(-1, -1))
		if !slices.Equal(b, orig) {
			t.Fatalf("n=%d: Normalize/Split mutated their input", n)
		}
	}
}

// TestBatchPrepAllocs pins the allocation budget of the per-engine batch
// preparation on a serving-sized batch: a 16-update mixed batch with no
// repeated edge normalizes without allocating and splits with one
// allocation; a single-class batch splits with none.
func TestBatchPrepAllocs(t *testing.T) {
	var mixed, inserts Batch
	for i := 0; i < 16; i++ {
		v := NodeID(2 * i)
		if i%3 == 0 {
			mixed = append(mixed, Del(v, v+1))
		} else {
			mixed = append(mixed, InsNew(v, v+1, "a", "b"))
		}
		inserts = append(inserts, Ins(v, v+1))
	}
	var sink Batch
	if a := testing.AllocsPerRun(100, func() { sink = mixed.Normalize() }); a != 0 {
		t.Errorf("Normalize: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink, _ = mixed.Split() }); a > 1 {
		t.Errorf("Split (mixed): %.1f allocs/op, want <= 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink, _ = inserts.Split() }); a != 0 {
		t.Errorf("Split (all inserts): %.1f allocs/op, want 0", a)
	}
	_ = sink
}

// refValidateBatch is the map-based ValidateBatch: every update checked
// against the in-batch state of its edge, seeded from the graph.
func refValidateBatch(g *Graph, b Batch) error {
	exists := make(map[Edge]bool, len(b))
	for i, u := range b {
		cur, seen := exists[u.Edge()]
		if !seen {
			cur = g.HasEdge(u.From, u.To)
		}
		switch u.Op {
		case Insert:
			if cur {
				return fmt.Errorf("update %d: %w: insert of existing edge (%d,%d)", i, ErrBadUpdate, u.From, u.To)
			}
			exists[u.Edge()] = true
		case Delete:
			if !cur {
				return fmt.Errorf("update %d: %w: delete of missing edge (%d,%d)", i, ErrBadUpdate, u.From, u.To)
			}
			exists[u.Edge()] = false
		default:
			return fmt.Errorf("update %d: %w: unknown op %v", i, ErrBadUpdate, u.Op)
		}
	}
	return nil
}

// TestValidateBatchMatchesReference compares ValidateBatch with the
// map-based reference on valid batches (small node pools make repeated
// edges and alternating insert/delete runs common, large ones rare) and
// on the same batches with one update flipped or given an unknown op:
// same verdict, same error text, same update index.
func TestValidateBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{0, 1, 2, 15, 16, 17, 63, 64, 65, 100, 200}
	for trial := 0; trial < 600; trial++ {
		n := sizes[trial%len(sizes)]
		nodes := []int{3, 8, 40, 1 << 20}[trial%4]
		b := randomValidBatch(rng, n, nodes)
		// The graph holds the edges the batch starts from: every edge
		// whose first update in b is a delete.
		g := New()
		seen := make(map[Edge]bool)
		for _, u := range b {
			if !seen[u.Edge()] {
				seen[u.Edge()] = true
				if u.Op == Delete {
					g.AddNode(u.From, "a")
					g.AddNode(u.To, "b")
					g.AddEdge(u.From, u.To)
				}
			}
		}
		cases := []Batch{b}
		if n > 0 {
			flipped := slices.Clone(b)
			i := rng.Intn(n)
			flipped[i] = flipped[i].Inverse()
			unknown := slices.Clone(b)
			unknown[rng.Intn(n)].Op = Op(7)
			cases = append(cases, flipped, unknown)
		}
		for ci, c := range cases {
			got, want := g.ValidateBatch(c), refValidateBatch(g, c)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("trial %d case %d (n=%d nodes=%d): ValidateBatch = %v, want %v", trial, ci, n, nodes, got, want)
			}
			if ci == 0 && got != nil {
				t.Fatalf("trial %d: valid batch rejected: %v", trial, got)
			}
			if got != nil && !errors.Is(got, ErrBadUpdate) {
				t.Fatalf("trial %d: error %v does not wrap ErrBadUpdate", trial, got)
			}
		}
	}
}

// TestValidateBatchAllocs pins the serving-path budget: a 16-update
// batch with no repeated edge validates without allocating.
func TestValidateBatchAllocs(t *testing.T) {
	g := New()
	var b Batch
	for i := 0; i < 16; i++ {
		v := NodeID(2 * i)
		if i%3 == 0 {
			g.AddNode(v, "a")
			g.AddNode(v+1, "b")
			g.AddEdge(v, v+1)
			b = append(b, Del(v, v+1))
		} else {
			b = append(b, InsNew(v, v+1, "a", "b"))
		}
	}
	var err error
	if a := testing.AllocsPerRun(100, func() { err = g.ValidateBatch(b) }); a != 0 {
		t.Errorf("ValidateBatch: %.1f allocs/op, want 0", a)
	}
	if err != nil {
		t.Fatal(err)
	}
}
