package scc

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRankRegistryMatchesSortedSlice checks the treap registry against
// the sorted-slice registry it replaced, over random interleavings of
// insert, remove (present and absent values), predecessor and max, with
// a reset midway.
func TestRankRegistryMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var r rankRegistry
	r.reset()
	var ref []float64 // sorted ascending
	refPred := func(v float64) float64 {
		i, _ := slices.BinarySearch(ref, v)
		if i == 0 {
			return v - 1
		}
		return ref[i-1]
	}
	draw := func() float64 {
		if len(ref) > 0 && rng.Intn(2) == 0 {
			return ref[rng.Intn(len(ref))]
		}
		return float64(rng.Intn(400)) / 4
	}
	for step := 0; step < 20000; step++ {
		if step == 10000 {
			r.reset()
			ref = ref[:0]
		}
		v := draw()
		i, found := slices.BinarySearch(ref, v)
		switch op := rng.Intn(4); {
		case op == 0 && !found:
			r.insert(v)
			ref = slices.Insert(ref, i, v)
		case op == 1:
			r.remove(v)
			if found {
				ref = slices.Delete(ref, i, i+1)
			}
		case op == 2:
			if got, want := r.predecessor(v), refPred(v); got != want {
				t.Fatalf("step %d: predecessor(%g) = %g, want %g", step, v, got, want)
			}
		}
		want := 0.0
		if len(ref) > 0 {
			want = ref[len(ref)-1]
		}
		if got := r.max(); got != want {
			t.Fatalf("step %d: max = %g, want %g", step, got, want)
		}
		if r.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, r.len(), len(ref))
		}
		if step%500 == 0 {
			if got := r.appendSorted(nil); !slices.Equal(got, ref) {
				t.Fatalf("step %d: contents %v, want %v", step, got, ref)
			}
		}
	}
}

// TestRankRegistryStaysShallow pins the O(log n) shape: the monotone
// inserts of a build (ranks 0..n-1) and of new nodes (max+1) would
// degenerate an unbalanced tree into a list.
func TestRankRegistryStaysShallow(t *testing.T) {
	var r rankRegistry
	r.reset()
	const n = 1 << 15
	for i := 0; i < n; i++ {
		r.insert(float64(i))
	}
	var depth func(t int32) int
	depth = func(t int32) int {
		if t < 0 {
			return 0
		}
		return 1 + max(depth(r.nodes[t].left), depth(r.nodes[t].right))
	}
	if d := depth(r.root); d > 4*15 {
		t.Fatalf("registry depth %d for %d keys", d, n)
	}
}
