package graph

import (
	"errors"
	"fmt"
)

// Op is the kind of a unit update.
type Op int8

// Unit update kinds of the incremental model (Section 2.2): edge insertion
// (possibly with new nodes) and edge deletion.
const (
	Insert Op = iota
	Delete
)

func (op Op) String() string {
	switch op {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", int8(op))
	}
}

// Update is a unit update to a graph. For insertions, FromLabel/ToLabel give
// the labels for endpoints that do not yet exist ("possibly with new
// nodes"); they are ignored for endpoints already present and for deletions.
type Update struct {
	Op        Op
	From, To  NodeID
	FromLabel string
	ToLabel   string
}

// Ins returns an edge-insertion update between existing nodes.
func Ins(v, w NodeID) Update { return Update{Op: Insert, From: v, To: w} }

// InsNew returns an edge-insertion update carrying labels for endpoints that
// may be new.
func InsNew(v, w NodeID, vl, wl string) Update {
	return Update{Op: Insert, From: v, To: w, FromLabel: vl, ToLabel: wl}
}

// Del returns an edge-deletion update.
func Del(v, w NodeID) Update { return Update{Op: Delete, From: v, To: w} }

func (u Update) String() string {
	return fmt.Sprintf("%s(%d,%d)", u.Op, u.From, u.To)
}

// Edge returns the edge the update touches.
func (u Update) Edge() Edge { return Edge{u.From, u.To} }

// Batch is a batch update ΔG: a sequence of unit updates.
type Batch []Update

// Split partitions a batch into insertions ΔG+ and deletions ΔG−,
// preserving order within each class. An empty class is nil, and both
// returned slices have cap == len, so appending to one never writes into
// the other or into b. A batch of a single class is returned as b itself
// (no allocation); a mixed batch costs one allocation shared by both
// halves. Like Normalize's result, the returned slices may alias b and
// must not be mutated.
func (b Batch) Split() (ins, del Batch) {
	n := 0
	for _, u := range b {
		if u.Op == Insert {
			n++
		}
	}
	switch {
	case len(b) == 0:
		return nil, nil
	case n == len(b):
		return b[:n:n], nil
	case n == 0:
		return nil, b[:len(b):len(b)]
	}
	buf := make(Batch, len(b))
	ins, del = buf[:0:n], buf[n:n:len(b)]
	for _, u := range b {
		if u.Op == Insert {
			ins = append(ins, u)
		} else {
			del = append(del, u)
		}
	}
	return ins, del
}

// normalizeScanMax is the batch length up to which Normalize looks for a
// repeated edge by a pairwise scan: at the small batch sizes of a serving
// commit the quadratic scan is cheaper than building two maps.
const normalizeScanMax = 64

// Normalize removes no-op pairs: the paper assumes w.l.o.g. that ΔG never
// both deletes and inserts the same edge. For a sequentially valid batch,
// the updates touching one edge alternate, so the net effect is determined
// by the first and last update on that edge: if they have the same op the
// last one is kept, otherwise they cancel and every update on that edge is
// dropped.
//
// When no edge repeats, nothing cancels and Normalize returns b itself,
// resliced to cap == len, without allocating. Callers must therefore treat
// the result as read-only: it may alias the caller's batch, which several
// engines may be reading at once (Durable applies one shared batch to
// every attached engine concurrently).
func (b Batch) Normalize() Batch {
	if len(b) <= normalizeScanMax && !b.repeatsEdge() {
		return b[:len(b):len(b)]
	}
	first := make(map[Edge]Op, len(b))
	last := make(map[Edge]int, len(b))
	for i, u := range b {
		if _, ok := first[u.Edge()]; !ok {
			first[u.Edge()] = u.Op
		}
		last[u.Edge()] = i
	}
	if len(last) == len(b) {
		return b[:len(b):len(b)]
	}
	out := make(Batch, 0, len(last))
	for i, u := range b {
		if last[u.Edge()] == i && first[u.Edge()] == u.Op {
			out = append(out, u)
		}
	}
	return out[:len(out):len(out)]
}

// repeatsEdge reports whether two updates of b touch the same edge, by a
// pairwise scan.
func (b Batch) repeatsEdge() bool {
	for i := 1; i < len(b); i++ {
		for j := 0; j < i; j++ {
			if b[j].From == b[i].From && b[j].To == b[i].To {
				return true
			}
		}
	}
	return false
}

// TouchedNodes returns the set of nodes appearing as an endpoint of any
// update in the batch. These are the seeds of d_Q-neighborhood localization.
func (b Batch) TouchedNodes() map[NodeID]bool {
	set := make(map[NodeID]bool, 2*len(b))
	for _, u := range b {
		set[u.From] = true
		set[u.To] = true
	}
	return set
}

// ErrBadUpdate reports an update that cannot be applied.
var ErrBadUpdate = errors.New("graph: update cannot be applied")

// Apply applies a unit update to g. Inserting an edge creates missing
// endpoints using the update's labels. Applying an insertion of an existing
// edge or a deletion of a missing edge returns ErrBadUpdate.
func (g *Graph) Apply(u Update) error {
	switch u.Op {
	case Insert:
		g.EnsureNode(u.From, u.FromLabel)
		g.EnsureNode(u.To, u.ToLabel)
		if !g.AddEdge(u.From, u.To) {
			return fmt.Errorf("%w: insert of existing edge (%d,%d)", ErrBadUpdate, u.From, u.To)
		}
	case Delete:
		if !g.DeleteEdge(u.From, u.To) {
			return fmt.Errorf("%w: delete of missing edge (%d,%d)", ErrBadUpdate, u.From, u.To)
		}
	default:
		return fmt.Errorf("%w: unknown op %v", ErrBadUpdate, u.Op)
	}
	return nil
}

// ApplyBatch applies every update of ΔG in order, producing G ⊕ ΔG.
// It stops at the first inapplicable update.
//
// Large batches on a multi-shard graph apply shard-parallel: the batch is
// validated and partitioned by owning shard (planBatch), every shard's
// owned effects run concurrently across Parallelism() workers, and the
// per-shard deltas merge serially in shard order (shard.go). The result —
// node set, labels, slot assignment, adjacency membership, counters, and
// any error — is identical to the serial loop (only the internal
// slice-vs-map adjacency representation may differ, because the parallel
// path applies net effects and skips transient promotions; iteration
// order is unspecified either way); batches that would fail partway take
// the serial path so partial application and the error position are
// preserved exactly.
func (g *Graph) ApplyBatch(b Batch) error {
	if len(b) >= parallelBatchMin && len(g.shards) > 1 {
		if workers := g.Parallelism(); workers > 1 {
			if plan, ok := g.planBatch(b); ok {
				g.applyBatchParallel(plan, workers)
				putBatchPlan(plan)
				return nil
			}
		}
	}
	for i, u := range b {
		if err := g.Apply(u); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	return nil
}

// Inverse returns the update that undoes u. Inverting an insertion that
// created nodes does not remove the nodes (the model keeps them).
func (u Update) Inverse() Update {
	inv := u
	if u.Op == Insert {
		inv.Op = Delete
	} else {
		inv.Op = Insert
	}
	return inv
}

// Inverse returns the batch that undoes b when applied after b
// (reversed order, each update inverted).
func (b Batch) Inverse() Batch {
	inv := make(Batch, len(b))
	for i, u := range b {
		inv[len(b)-1-i] = u.Inverse()
	}
	return inv
}
