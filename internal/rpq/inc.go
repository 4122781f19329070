package rpq

import (
	"fmt"
	"slices"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/pq"
)

// This file implements IncRPQ (Fig. 5) and the unit-at-a-time baseline
// IncRPQn.

// Delta describes changes ΔO to Q(G).
type Delta struct {
	Added   []Pair
	Removed []Pair
	// pending accumulates transitions during an Apply; opposite transitions
	// of the same pair cancel (the pair was only transiently a match).
	pending map[Pair]bool
}

// Empty reports whether the output was unaffected.
func (d *Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// note records a match transition.
func (d *Delta) note(p Pair, added bool) {
	if d.pending == nil {
		d.pending = make(map[Pair]bool)
	}
	if cur, ok := d.pending[p]; ok && cur != added {
		delete(d.pending, p)
		return
	}
	d.pending[p] = added
}

// finish materializes the pending transitions into sorted Added/Removed.
func (d *Delta) finish() {
	for p, added := range d.pending {
		if added {
			d.Added = append(d.Added, p)
		} else {
			d.Removed = append(d.Removed, p)
		}
	}
	d.pending = nil
	slices.SortFunc(d.Added, comparePairs)
	slices.SortFunc(d.Removed, comparePairs)
}

// Apply processes a batch ΔG with IncRPQ. The batch is normalized; node
// creation side effects of cancelled insertions are preserved.
func (e *Engine) Apply(batch graph.Batch) (Delta, error) {
	var d Delta
	// New nodes first (they may be new sources).
	var newNodes []graph.NodeID
	for _, u := range batch {
		if u.Op != graph.Insert {
			continue
		}
		if e.g.EnsureNode(u.From, u.FromLabel) {
			newNodes = append(newNodes, u.From)
		}
		if e.g.EnsureNode(u.To, u.ToLabel) {
			newNodes = append(newNodes, u.To)
		}
	}
	batch = batch.Normalize()
	for _, u := range batch {
		if u.Op == graph.Delete && !e.g.HasEdge(u.From, u.To) {
			return Delta{}, fmt.Errorf("rpq: %w: delete of missing edge (%d,%d)", graph.ErrBadUpdate, u.From, u.To)
		}
		if u.Op == graph.Insert && e.g.HasEdge(u.From, u.To) {
			return Delta{}, fmt.Errorf("rpq: %w: insert of existing edge (%d,%d)", graph.ErrBadUpdate, u.From, u.To)
		}
	}
	// Structural updates first, in one batch application — large batches
	// mutate shard-parallel via the two-phase protocol of internal/graph;
	// markings are repaired afterwards. The batch was validated above, so
	// it cannot fail partway.
	if err := e.g.ApplyBatch(batch); err != nil {
		return Delta{}, err
	}
	ins, dels := batch.Split()
	// Route each update to the sources whose markings it can touch, via
	// the inverted index: an update on edge (v, w) is relevant to source u
	// only if u has an entry at v (deletion support / insertion
	// relaxation) — sources without one cannot be affected.
	relIns := make(map[graph.NodeID]graph.Batch)
	relDels := make(map[graph.NodeID]graph.Batch)
	for _, u := range dels {
		for src := range e.srcAt[u.From] {
			relDels[src] = append(relDels[src], u)
		}
	}
	for _, u := range ins {
		for src := range e.srcAt[u.From] {
			relIns[src] = append(relIns[src], u)
		}
	}
	touched := make(map[graph.NodeID]bool, len(relIns)+len(relDels))
	for src := range relDels {
		touched[src] = true
	}
	for src := range relIns {
		touched[src] = true
	}
	// Each affected source's repair touches only its own marking table, so
	// the repairs fan out across workers against the read-shared graph —
	// as do the full product BFS builds of brand-new sources (their
	// markings are part of AFF — data newly inspected). Global effects are
	// buffered per source and merged serially below; the merged engine and
	// the sorted delta are identical to the sequential loop.
	srcs := make([]graph.NodeID, 0, len(touched))
	for src := range touched {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	workers := e.g.Parallelism()
	if workers > 1 {
		e.g.PrepareConcurrentReads()
	}
	reps := make([]*srcRepair, len(srcs)+len(newNodes))
	meters := make([]cost.Meter, workers)
	graph.ParallelFor(workers, len(reps), func(worker, i int) {
		if i < len(srcs) {
			src := srcs[i]
			r := &srcRepair{e: e, src: src, sm: e.marks[src], meter: &meters[worker]}
			r.repair(relIns[src], relDels[src])
			reps[i] = r
			return
		}
		// A brand-new node cannot already be a touched source (it had no
		// entries when the updates were routed), so the two task kinds are
		// disjoint.
		reps[i] = e.buildSource(newNodes[i-len(srcs)], &meters[worker])
	})
	for _, r := range reps {
		e.mergeRepair(r, &d)
	}
	for i := range meters {
		e.meter.Merge(&meters[i])
	}
	d.finish()
	return d, nil
}

// ApplyUnitwise is IncRPQn: the batch is processed one unit update at a
// time.
func (e *Engine) ApplyUnitwise(batch graph.Batch) (Delta, error) {
	var total Delta
	for _, u := range batch {
		d, err := e.Apply(graph.Batch{u})
		if err != nil {
			return Delta{}, err
		}
		for _, p := range d.Added {
			total.note(p, true)
		}
		for _, p := range d.Removed {
			total.note(p, false)
		}
	}
	total.finish()
	return total, nil
}

// ApplyInsert processes one unit insertion.
func (e *Engine) ApplyInsert(u graph.Update) (Delta, error) {
	if u.Op != graph.Insert {
		return Delta{}, fmt.Errorf("rpq: ApplyInsert got %v", u)
	}
	return e.Apply(graph.Batch{u})
}

// ApplyDelete processes one unit deletion.
func (e *Engine) ApplyDelete(u graph.Update) (Delta, error) {
	if u.Op != graph.Delete {
		return Delta{}, fmt.Errorf("rpq: ApplyDelete got %v", u)
	}
	return e.Apply(graph.Batch{u})
}

// repair fixes the marking table of source r.src after the updates:
// identAff (Fig. 5 line 1), potentials (lines 2–4), insertion seeding
// (lines 5–8), settle (line 9) and removal of unreachable entries. It
// runs concurrently with other sources' repairs: everything it writes is
// source-local or buffered on r (see srcRepair).
func (r *srcRepair) repair(ins, dels graph.Batch) {
	e, sm := r.e, r.sm
	affected := r.identAff(dels)
	q := pq.New[key]()
	// Potentials from unaffected cpre members (Fig. 5 lines 2–4).
	for k := range affected {
		ent := sm.table[k]
		best := Unreachable
		for p := range ent.cpre {
			r.meter.AddEdges(1)
			if affected[p] {
				continue
			}
			if pd := sm.table[p].dist + 1; pd < best {
				best = pd
			}
		}
		ent.dist = best
		ent.mpre = make(map[key]struct{})
		r.meter.AddEntries(1)
		if best < Unreachable {
			q.Push(k, best)
		}
	}
	// Insertions between unaffected endpoints seed the queue (lines 5–8);
	// cpre links are structural and recorded regardless of distances.
	for _, u := range ins {
		lblTo := e.g.LabelIDAt(u.To)
		for s := 0; s < e.nfa.NumStates(); s++ {
			kv := key{u.From, s}
			ev := sm.table[kv]
			if ev == nil {
				continue
			}
			for _, s2 := range e.nfa.NextID(s, lblTo) {
				kw := key{u.To, s2}
				ew := sm.table[kw]
				cand := ev.dist + 1
				if affected[kv] {
					// The tentative distance of kv already accounted for
					// this edge via cpre; only the structural link is new.
					if ew != nil {
						ew.cpre[kv] = struct{}{}
					}
					continue
				}
				switch {
				case ew == nil:
					if cand >= Unreachable {
						continue
					}
					ew = &entry{
						dist: cand,
						cpre: map[key]struct{}{kv: {}},
						mpre: map[key]struct{}{kv: {}},
					}
					sm.table[kw] = ew
					r.meter.AddEntries(1)
					r.noteCreated(kw)
					q.Push(kw, cand)
				case cand < ew.dist:
					ew.dist = cand
					ew.cpre[kv] = struct{}{}
					ew.mpre = map[key]struct{}{kv: {}}
					r.meter.AddEntries(1)
					q.Push(kw, cand)
				case cand == ew.dist:
					ew.cpre[kv] = struct{}{}
					ew.mpre[kv] = struct{}{}
				default:
					ew.cpre[kv] = struct{}{}
				}
			}
		}
	}
	// Settle exact values (line 9).
	r.settle(q)
	r.meter.AddHeapOps(q.Ops)
	// Entries that stayed unreachable disappear, together with their
	// structural links in successors.
	for k := range affected {
		ent := sm.table[k]
		if ent == nil || ent.dist < Unreachable {
			continue
		}
		delete(sm.table, k)
		r.noteRemoved(k)
		r.meter.AddEntries(1)
		e.g.Successors(k.v, func(y graph.NodeID) bool {
			for _, sy := range e.nfa.NextID(k.s, e.g.LabelIDAt(y)) {
				if ey := sm.table[key{y, sy}]; ey != nil {
					delete(ey.cpre, k)
					delete(ey.mpre, k)
				}
			}
			return true
		})
	}
}

// identAff implements Fig. 5 line 1: remove the structural links broken by
// the deletions and mark every entry whose mpre support drains away,
// propagating through mpre members transitively.
func (r *srcRepair) identAff(dels graph.Batch) map[key]bool {
	e, sm := r.e, r.sm
	affected := make(map[key]bool)
	var stack []key
	markAffected := func(k key) {
		if !affected[k] && !sm.table[k].seed {
			affected[k] = true
			stack = append(stack, k)
		}
	}
	for _, u := range dels {
		lblTo := e.g.LabelIDAt(u.To)
		for s := 0; s < e.nfa.NumStates(); s++ {
			kv := key{u.From, s}
			if sm.table[kv] == nil {
				continue
			}
			for _, s2 := range e.nfa.NextID(s, lblTo) {
				kw := key{u.To, s2}
				ew := sm.table[kw]
				if ew == nil {
					continue
				}
				delete(ew.cpre, kv)
				if _, inM := ew.mpre[kv]; inM {
					delete(ew.mpre, kv)
					if len(ew.mpre) == 0 {
						markAffected(kw)
					}
				}
			}
		}
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r.meter.AddNodes(1)
		// Successors that relied on k for their shortest paths lose that
		// support.
		e.g.Successors(k.v, func(y graph.NodeID) bool {
			r.meter.AddEdges(1)
			for _, sy := range e.nfa.NextID(k.s, e.g.LabelIDAt(y)) {
				ky := key{y, sy}
				ey := sm.table[ky]
				if ey == nil || affected[ky] {
					continue
				}
				if _, inM := ey.mpre[k]; inM {
					delete(ey.mpre, k)
					if len(ey.mpre) == 0 {
						markAffected(ky)
					}
				}
			}
			return true
		})
	}
	return affected
}
