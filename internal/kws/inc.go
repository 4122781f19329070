package kws

import (
	"cmp"
	"fmt"
	"slices"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/pq"
)

// This file implements the incremental side of KWS:
//
//   - IncKWS+  (ApplyInsert)  — Fig. 1: decrease-only BFS propagation.
//   - IncKWS−  (ApplyDelete)  — Fig. 3: two phases, identify affected
//     entries by walking next-pointers backwards, then settle exact values
//     with a priority queue.
//   - IncKWS   (Apply)        — batch updates in three phases sharing one
//     global priority queue per keyword, so every affected entry's final
//     distance is decided at most once.
//   - IncKWSn  (ApplyUnitwise)— the unit-at-a-time baseline of the paper's
//     experiments.
//
// All methods mutate the underlying graph and the index together, and
// return the Delta of the match set.

// Delta describes changes ΔO to the output Q(G).
type Delta struct {
	// Added lists new match roots with their distance vectors.
	Added []Match
	// Removed lists roots whose match disappeared.
	Removed []graph.NodeID
	// Updated lists roots that remain matches with changed distances.
	Updated []Match
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Updated) == 0
}

// touchTracker remembers the pre-update match row of every node whose kdist
// changed, so the final Delta is computed locally.
type touchTracker struct {
	ix  *Index
	pre map[graph.NodeID][]int // nil slice = was not a match
}

func newTracker(ix *Index) *touchTracker {
	return &touchTracker{ix: ix, pre: make(map[graph.NodeID][]int)}
}

// touch records v before its first modification.
func (t *touchTracker) touch(v graph.NodeID) {
	if _, ok := t.pre[v]; ok {
		return
	}
	if ds, ok := t.ix.matches[v]; ok {
		cp := make([]int, len(ds))
		copy(cp, ds)
		t.pre[v] = cp
	} else {
		t.pre[v] = nil
	}
}

// merge folds another tracker's pre-state into t. Workers repairing
// different keywords may touch the same node; the remembered pre-rows are
// identical (the match set is immutable during repair), so first-write-wins
// makes the union independent of worker scheduling.
func (t *touchTracker) merge(o *touchTracker) {
	for v, pre := range o.pre {
		if _, ok := t.pre[v]; !ok {
			t.pre[v] = pre
		}
	}
}

// delta refreshes the match rows of all touched nodes and diffs them
// against the remembered pre-state. Output slices are sorted by root, so
// the delta is deterministic regardless of map iteration and of how many
// workers repaired the keywords.
func (t *touchTracker) delta() Delta {
	var d Delta
	for v, old := range t.pre {
		t.ix.refreshMatch(v)
		now, isMatch := t.ix.matches[v]
		switch {
		case old == nil && isMatch:
			m, _ := t.ix.MatchAt(v)
			d.Added = append(d.Added, m)
		case old != nil && !isMatch:
			d.Removed = append(d.Removed, v)
		case old != nil && isMatch && !intsEqual(old, now):
			m, _ := t.ix.MatchAt(v)
			d.Updated = append(d.Updated, m)
		}
	}
	d.sortByRoot()
	return d
}

// sortByRoot puts the delta into its canonical order (roots ascending in
// every class). Both the incremental repair and the batch-fallback path
// emit through it, so their deltas stay comparable.
func (d *Delta) sortByRoot() {
	byRoot := func(a, b Match) int { return cmp.Compare(a.Root, b.Root) }
	slices.SortFunc(d.Added, byRoot)
	slices.SortFunc(d.Updated, byRoot)
	slices.Sort(d.Removed)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ensureRow creates kdist rows for nodes introduced by insertions.
func (ix *Index) ensureRow(v graph.NodeID, t *touchTracker) {
	if _, ok := ix.kdist[v]; !ok {
		t.touch(v)
		ix.kdist[v] = ix.freshEntries(v)
	}
}

// ApplyInsert applies a unit edge insertion with IncKWS+ (Fig. 1). The edge
// must not exist yet; missing endpoints are created from the update labels.
func (ix *Index) ApplyInsert(u graph.Update) (Delta, error) {
	if u.Op != graph.Insert {
		return Delta{}, fmt.Errorf("kws: ApplyInsert got %v", u)
	}
	t := newTracker(ix)
	if err := ix.g.Apply(u); err != nil {
		return Delta{}, err
	}
	ix.ensureRow(u.From, t)
	ix.ensureRow(u.To, t)
	for i := range ix.q.Keywords {
		ix.insertKeyword(i, u.From, u.To, t, ix.meter)
	}
	return t.delta(), nil
}

// insertKeyword is IncKWS+ lines 1–8 for a single keyword: if (v,w) creates
// a shorter path from v to keyword i, update kdist(v) and propagate the
// decrease to ancestors with a FIFO queue.
func (ix *Index) insertKeyword(i int, v, w graph.NodeID, t *touchTracker, meter *cost.Meter) {
	wRow := ix.kdist[w]
	vRow := ix.kdist[v]
	meter.AddEntries(1)
	if wRow[i].Dist+1 >= vRow[i].Dist || wRow[i].Dist+1 > ix.q.Bound {
		return
	}
	t.touch(v)
	vRow[i] = Entry{Dist: wRow[i].Dist + 1, Next: w}
	queue := []graph.NodeID{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		meter.AddNodes(1)
		xd := ix.kdist[x][i].Dist
		if xd >= ix.q.Bound {
			continue // propagation cannot improve beyond the bound
		}
		ix.g.Predecessors(x, func(p graph.NodeID) bool {
			meter.AddEdges(1)
			pRow := ix.kdist[p]
			if xd+1 < pRow[i].Dist && xd+1 <= ix.q.Bound {
				t.touch(p)
				pRow[i] = Entry{Dist: xd + 1, Next: x}
				meter.AddEntries(1)
				queue = append(queue, p)
			}
			return true
		})
	}
}

// ApplyDelete applies a unit edge deletion with IncKWS− (Fig. 3).
func (ix *Index) ApplyDelete(u graph.Update) (Delta, error) {
	if u.Op != graph.Delete {
		return Delta{}, fmt.Errorf("kws: ApplyDelete got %v", u)
	}
	t := newTracker(ix)
	if err := ix.g.Apply(u); err != nil {
		return Delta{}, err
	}
	for i := range ix.q.Keywords {
		affected := ix.identifyAffected(i, []graph.Update{u}, ix.meter)
		q := pq.New[graph.NodeID]()
		ix.computePotentials(i, affected, q, t, ix.meter)
		ix.settle(i, q, t, ix.meter)
		ix.meter.AddHeapOps(q.Ops)
	}
	return t.delta(), nil
}

// identifyAffected is IncKWS− lines 1–6 generalized to several deletions:
// every node whose chosen shortest path to keyword i ran through a deleted
// edge, transitively along next pointers, is marked affected.
func (ix *Index) identifyAffected(i int, dels []graph.Update, meter *cost.Meter) map[graph.NodeID]bool {
	affected := make(map[graph.NodeID]bool)
	var stack []graph.NodeID
	for _, d := range dels {
		row, ok := ix.kdist[d.From]
		if !ok {
			continue
		}
		if row[i].Next == d.To && row[i].Dist <= ix.q.Bound && !affected[d.From] {
			affected[d.From] = true
			stack = append(stack, d.From)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		meter.AddNodes(1)
		ix.g.Predecessors(x, func(p graph.NodeID) bool {
			meter.AddEdges(1)
			pRow := ix.kdist[p]
			if !affected[p] && pRow[i].Next == x && pRow[i].Dist <= ix.q.Bound {
				affected[p] = true
				stack = append(stack, p)
			}
			return true
		})
	}
	return affected
}

// computePotentials is IncKWS− lines 7–9: each affected node gets a
// tentative distance computed from its unaffected successors, and is queued
// for the settle phase when within bound.
func (ix *Index) computePotentials(i int, affected map[graph.NodeID]bool, q *pq.Heap[graph.NodeID], t *touchTracker, meter *cost.Meter) {
	for v := range affected {
		t.touch(v)
		best := Entry{Dist: Unreachable, Next: NoNext}
		ix.g.Successors(v, func(s graph.NodeID) bool {
			meter.AddEdges(1)
			if affected[s] {
				return true
			}
			sRow, ok := ix.kdist[s]
			if !ok {
				return true
			}
			if d := sRow[i].Dist + 1; d < best.Dist || d == best.Dist && s < best.Next {
				best = Entry{Dist: d, Next: s}
			}
			return true
		})
		if best.Dist > ix.q.Bound {
			best = Entry{Dist: Unreachable, Next: NoNext}
		}
		ix.kdist[v][i] = best
		meter.AddEntries(1)
		if best.Dist <= ix.q.Bound {
			q.Push(v, best.Dist)
		}
	}
}

// settle is IncKWS− lines 10–14: Dijkstra-style settling of exact values in
// monotonically increasing distance order, relaxing predecessors within the
// bound.
func (ix *Index) settle(i int, q *pq.Heap[graph.NodeID], t *touchTracker, meter *cost.Meter) {
	for q.Len() > 0 {
		v, d, _ := q.Pop()
		meter.AddNodes(1)
		if d != ix.kdist[v][i].Dist {
			continue // superseded by a later decrease
		}
		if d >= ix.q.Bound {
			continue // cannot relax anyone within the bound
		}
		ix.g.Predecessors(v, func(p graph.NodeID) bool {
			meter.AddEdges(1)
			pRow := ix.kdist[p]
			if d+1 < pRow[i].Dist && d+1 <= ix.q.Bound {
				t.touch(p)
				pRow[i] = Entry{Dist: d + 1, Next: v}
				meter.AddEntries(1)
				q.Push(p, d+1)
			}
			return true
		})
	}
}

// Apply processes a batch update ΔG with the three-phase IncKWS algorithm.
// The batch is normalized first (late updates win); updates must be valid
// against the current graph in sequence order.
//
// Before repairing, Apply consults the cost model (cost.EstimateKWS): when
// the predicted affected area makes the incremental repair costlier than
// the BLINKS batch build — IncKWS loses that race once |ΔG| grows past
// roughly a fifth of |E| — it falls back to applying ΔG and rebuilding
// kdist from scratch, diffing the match sets for the exact same Delta.
// The decision is a pure function of graph and batch statistics, so it is
// identical at every worker and shard count.
func (ix *Index) Apply(batch graph.Batch) (Delta, error) {
	// Estimate on the normalized view: cancelled insert/delete pairs cost
	// the repair path nothing, so they must not push the model toward a
	// full rebuild.
	norm := batch.Normalize()
	insN, delsN := 0, 0
	for _, u := range norm {
		if u.Op == graph.Insert {
			insN++
		} else {
			delsN++
		}
	}
	// The shard footprint is observability only; skip its map-and-sort on
	// the tiny-batch hot path the floor always routes incremental.
	shardsTouched := 0
	if len(norm) >= cost.FallbackMinBatch {
		shardsTouched = len(norm.TouchedShards(ix.g))
	}
	ix.lastEst = cost.EstimateKWS(ix.g.NumNodes(), ix.g.NumEdges(), insN, delsN,
		ix.q.Bound, len(ix.q.Keywords), shardsTouched)
	if ix.lastEst.PreferBatch() {
		return ix.applyRebuild(batch, norm)
	}
	t := newTracker(ix)
	// Node creation is a side effect of insertions even when the edge is
	// later cancelled by a deletion, so it runs on the raw batch.
	for _, u := range batch {
		if u.Op != graph.Insert {
			continue
		}
		if ix.g.EnsureNode(u.From, u.FromLabel) {
			ix.ensureRow(u.From, t)
		}
		if ix.g.EnsureNode(u.To, u.ToLabel) {
			ix.ensureRow(u.To, t)
		}
	}
	batch = norm
	// Apply all structural updates first; kdist is repaired afterwards.
	if err := ix.g.ApplyBatch(batch); err != nil {
		return Delta{}, err
	}
	ins, dels := batch.Split()
	// The per-keyword repairs are independent (keyword i reads the shared
	// graph and writes only column i of the kdist rows), so they fan out
	// across workers. Each worker repairs with a private tracker and meter;
	// the merged result — kdist columns, touched set, delta — is identical
	// to the sequential loop.
	workers := ix.g.Parallelism()
	if workers > 1 {
		ix.g.PrepareConcurrentReads()
	}
	m := len(ix.q.Keywords)
	trackers := make([]*touchTracker, m)
	meters := make([]cost.Meter, m)
	graph.ParallelFor(workers, m, func(_, i int) {
		trackers[i] = newTracker(ix)
		ix.repairKeyword(i, ins, dels, trackers[i], &meters[i])
	})
	for i := 0; i < m; i++ {
		t.merge(trackers[i])
		ix.meter.Merge(&meters[i])
	}
	return t.delta(), nil
}

// repairKeyword runs the three phases of IncKWS for one keyword: affected
// identification over ΔG−, potentials, insertion seeding over ΔG+, and the
// shared-queue settle. It touches only column i of the kdist rows plus the
// caller's private tracker and meter, so keywords repair concurrently.
func (ix *Index) repairKeyword(i int, ins, dels graph.Batch, t *touchTracker, meter *cost.Meter) {
	// Phase (a): affected entries w.r.t. keyword i due to ΔG−, with
	// potential values, all in one global queue q_i.
	affected := ix.identifyAffected(i, dels, meter)
	q := pq.New[graph.NodeID]()
	ix.computePotentials(i, affected, q, t, meter)
	// Phase (b): insertions between unaffected endpoints seed the queue
	// instead of propagating directly, interleaving with deletions.
	for _, u := range ins {
		if affected[u.From] || affected[u.To] {
			continue
		}
		wRow := ix.kdist[u.To]
		vRow := ix.kdist[u.From]
		meter.AddEntries(1)
		if wRow[i].Dist+1 < vRow[i].Dist && wRow[i].Dist+1 <= ix.q.Bound {
			t.touch(u.From)
			vRow[i] = Entry{Dist: wRow[i].Dist + 1, Next: u.To}
			q.Push(u.From, vRow[i].Dist)
		}
	}
	// Phase (c): settle exact values once per affected entry.
	ix.settle(i, q, t, meter)
	meter.AddHeapOps(q.Ops)
}

// applyRebuild is the batch-fallback path of Apply: apply ΔG to the graph
// (node-creation side effects from the raw batch, structure from the
// caller's normalized view — the same mutation semantics as the
// incremental path), rebuild kdist and the match set from scratch with the
// batch algorithm, and derive the Delta by diffing the old match set
// against the new one — the exact output change, same as the repair path.
func (ix *Index) applyRebuild(batch, norm graph.Batch) (Delta, error) {
	old := ix.matches
	for _, u := range batch {
		if u.Op != graph.Insert {
			continue
		}
		ix.g.EnsureNode(u.From, u.FromLabel)
		ix.g.EnsureNode(u.To, u.ToLabel)
	}
	if err := ix.g.ApplyBatch(norm); err != nil {
		return Delta{}, err
	}
	fresh, err := Build(ix.g, ix.q, ix.meter)
	if err != nil {
		return Delta{}, err
	}
	ix.kdist, ix.matches = fresh.kdist, fresh.matches
	var d Delta
	for r, ds := range ix.matches {
		pre, was := old[r]
		switch {
		case !was:
			m, _ := ix.MatchAt(r)
			d.Added = append(d.Added, m)
		case !intsEqual(pre, ds):
			m, _ := ix.MatchAt(r)
			d.Updated = append(d.Updated, m)
		}
	}
	for r := range old {
		if _, is := ix.matches[r]; !is {
			d.Removed = append(d.Removed, r)
		}
	}
	d.sortByRoot()
	return d, nil
}

// LastEstimate returns the cost-model verdict of the most recent Apply:
// the predicted |AFF|, the repair-vs-batch costs, and the shard footprint
// of the batch. Benchmarks and tests use it to observe routing.
func (ix *Index) LastEstimate() cost.Estimate { return ix.lastEst }

// ApplyUnitwise is IncKWSn: it processes the batch one unit update at a
// time using the unit algorithms, the baseline the paper compares IncKWS
// against.
func (ix *Index) ApplyUnitwise(batch graph.Batch) (Delta, error) {
	t := newTracker(ix)
	for _, u := range batch {
		var err error
		if u.Op == graph.Insert {
			_, err = ix.applyInsertTracked(u, t)
		} else {
			_, err = ix.applyDeleteTracked(u, t)
		}
		if err != nil {
			return Delta{}, err
		}
	}
	return t.delta(), nil
}

func (ix *Index) applyInsertTracked(u graph.Update, t *touchTracker) (Delta, error) {
	if err := ix.g.Apply(u); err != nil {
		return Delta{}, err
	}
	ix.ensureRow(u.From, t)
	ix.ensureRow(u.To, t)
	for i := range ix.q.Keywords {
		ix.insertKeyword(i, u.From, u.To, t, ix.meter)
	}
	// Matches are refreshed once at the end by the caller's tracker.
	return Delta{}, nil
}

func (ix *Index) applyDeleteTracked(u graph.Update, t *touchTracker) (Delta, error) {
	if err := ix.g.Apply(u); err != nil {
		return Delta{}, err
	}
	for i := range ix.q.Keywords {
		affected := ix.identifyAffected(i, []graph.Update{u}, ix.meter)
		q := pq.New[graph.NodeID]()
		ix.computePotentials(i, affected, q, t, ix.meter)
		ix.settle(i, q, t, ix.meter)
		ix.meter.AddHeapOps(q.Ops)
	}
	return Delta{}, nil
}
