// Package rpq implements regular path queries (RPQ, Section 2.1 of Fan,
// Hu & Tian, SIGMOD 2017) and their incrementalization (Section 5.2).
//
// The batch algorithm RPQ_NFA [29,33] compiles the query to an ε-free NFA
// M_Q and, for every source node u whose label can start a word of L(Q),
// runs a BFS over the intersection (product) graph of G and M_Q. A match
// (u, w) holds when some product node (w, s) with s accepting is reachable
// from u's seed states.
//
// The auxiliary structure is the marking pmark_e: per source u, node v and
// state s an entry (dist, cpre, mpre), where dist is the shortest product
// distance from u's seeds, cpre the product predecessors that carry
// entries, and mpre the subset on shortest paths. IncRPQ (Fig. 5) repairs
// these markings: identAff walks mpre supports broken by deletions,
// potentials are recomputed from unaffected cpre members, insertions seed
// the same per-source priority queue, and a Dijkstra-style settle decides
// every affected distance at most once — the cost profile that makes IncRPQ
// bounded relative to RPQ_NFA.
package rpq

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/pq"
	"incgraph/internal/rex"
)

// Unreachable is the distance of entries scheduled for removal.
const Unreachable = int(1) << 30

// Pair is a query answer: Dst is reachable from Src along a path whose
// label string is in L(Q).
type Pair struct {
	Src, Dst graph.NodeID
}

// comparePairs orders pairs by (Src, Dst): the canonical answer order.
func comparePairs(a, b Pair) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// key identifies a product node (graph node, NFA state) within one source's
// marking table.
type key struct {
	v graph.NodeID
	s int
}

// entry is one pmark_e record.
type entry struct {
	dist int
	// seed marks source entries (u, s) with s ∈ δ(s0, l(u)); they have
	// dist 0 and are never affected by updates.
	seed bool
	// cpre holds the product predecessors of this node that carry entries.
	cpre map[key]struct{}
	// mpre holds the cpre members on shortest product paths
	// (dist(pred) + 1 == dist).
	mpre map[key]struct{}
}

// sourceMark is the marking table of one source node.
type sourceMark struct {
	table map[key]*entry
	// acc counts, per target node, how many accepting states carry entries;
	// the source matches the target iff acc > 0.
	acc map[graph.NodeID]int
}

// Engine maintains Q(G) and the markings under updates.
type Engine struct {
	g       *graph.Graph
	ast     *rex.Ast
	nfa     *rex.NFA
	marks   map[graph.NodeID]*sourceMark
	matches map[Pair]struct{}
	// srcAt[v][u] counts the states s for which source u has an entry at
	// node v. It is the inverted index that lets Apply repair only the
	// sources whose markings an update can possibly touch, keeping the
	// cost proportional to AFF rather than to the number of sources.
	srcAt map[graph.NodeID]map[graph.NodeID]int
	// sorted memoizes Matches against the graph mutation generation (the
	// match set only moves inside Apply, which mutates the graph first).
	sorted graph.GenCache[[]Pair]
	// answer memoizes the WriteAnswer bytes the same way.
	answer graph.GenCache[[]byte]
	meter  *cost.Meter
}

// NewEngine compiles the query and runs the batch algorithm RPQ_NFA.
// The meter may be nil.
//
// Each source node's product BFS touches only that source's marking table,
// so the evaluation fans out per source across g.Parallelism() workers.
// Engine-global state — the inverted index, the match set — is updated by
// a serial merge of per-source buffers afterwards, in source order, making
// the built engine identical to a sequential evaluation.
func NewEngine(g *graph.Graph, ast *rex.Ast, meter *cost.Meter) (*Engine, error) {
	if ast == nil {
		return nil, fmt.Errorf("rpq: nil query")
	}
	if err := ast.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		g:       g,
		ast:     ast,
		nfa:     rex.Compile(ast),
		marks:   make(map[graph.NodeID]*sourceMark),
		matches: make(map[Pair]struct{}),
		srcAt:   make(map[graph.NodeID]map[graph.NodeID]int),
		meter:   meter,
	}
	workers := g.Parallelism()
	if workers > 1 {
		g.PrepareConcurrentReads()
	}
	// Sources in ascending order, collected and sorted per shard across
	// the worker pool (identical output to NodesSorted).
	sources := g.NodesSortedParallel()
	reps := make([]*srcRepair, len(sources))
	meters := make([]cost.Meter, workers)
	graph.ParallelFor(workers, len(sources), func(worker, i int) {
		reps[i] = e.buildSource(sources[i], &meters[worker])
	})
	for _, r := range reps {
		e.mergeRepair(r, nil)
	}
	for i := range meters {
		meter.Merge(&meters[i])
	}
	return e, nil
}

// Parse is a convenience wrapper: NewEngine with a textual query.
func Parse(g *graph.Graph, query string, meter *cost.Meter) (*Engine, error) {
	ast, err := rex.Parse(query)
	if err != nil {
		return nil, err
	}
	return NewEngine(g, ast, meter)
}

// srcRepair is the worker-local context of one source's batch build or
// incremental repair. All mutations land in the source's own marking table
// (sm), the worker's private meter, a local Delta, and an event log of
// entry creations/removals; engine-global state (marks, srcAt, matches) is
// untouched until the serial mergeRepair, so any number of srcRepairs can
// run concurrently against the read-shared graph.
type srcRepair struct {
	e     *Engine
	src   graph.NodeID
	sm    *sourceMark
	meter *cost.Meter
	// d accumulates this source's match transitions (net of transients).
	d Delta
	// events defers the inverted-index updates of noteCreated/noteRemoved.
	events []entryEvent
}

// entryEvent records one entry creation or removal for deferred replay
// into the engine's inverted index.
type entryEvent struct {
	k       key
	created bool
}

// buildSource computes the marking table of source u from scratch: seed
// entries for the states δ(s0, l(u)), then the product BFS/settle. It
// returns nil when u is not a source. Used by the batch build and for
// nodes introduced by insertions; the caller must mergeRepair the result.
func (e *Engine) buildSource(u graph.NodeID, meter *cost.Meter) *srcRepair {
	starts := e.nfa.NextID(e.nfa.Start(), e.g.LabelIDAt(u))
	if len(starts) == 0 {
		return nil
	}
	r := &srcRepair{
		e:     e,
		src:   u,
		sm:    &sourceMark{table: make(map[key]*entry), acc: make(map[graph.NodeID]int)},
		meter: meter,
	}
	q := pq.New[key]()
	for _, s := range starts {
		k := key{u, s}
		r.sm.table[k] = &entry{
			dist: 0,
			seed: true,
			cpre: make(map[key]struct{}),
			mpre: make(map[key]struct{}),
		}
		meter.AddEntries(1)
		r.noteCreated(k)
		q.Push(k, 0)
	}
	r.settle(q)
	meter.AddHeapOps(q.Ops)
	return r
}

// noteCreated maintains the source-local acc counts and match transitions
// when an entry appears, and defers the inverted-index update.
func (r *srcRepair) noteCreated(k key) {
	r.events = append(r.events, entryEvent{k, true})
	if !r.e.nfa.Accepting(k.s) {
		return
	}
	r.sm.acc[k.v]++
	if r.sm.acc[k.v] == 1 {
		r.d.note(Pair{r.src, k.v}, true)
	}
}

// noteRemoved is the inverse of noteCreated.
func (r *srcRepair) noteRemoved(k key) {
	r.events = append(r.events, entryEvent{k, false})
	if !r.e.nfa.Accepting(k.s) {
		return
	}
	r.sm.acc[k.v]--
	if r.sm.acc[k.v] == 0 {
		delete(r.sm.acc, k.v)
		r.d.note(Pair{r.src, k.v}, false)
	}
}

// mergeRepair folds a worker's deferred global effects into the engine:
// the source table (when newly built), the inverted-index events, and the
// net match transitions (also noted on d when non-nil). Merging is serial
// and, because distinct sources produce disjoint pairs and commutative
// index increments, order-independent — the merged engine matches a
// sequential run exactly.
func (e *Engine) mergeRepair(r *srcRepair, d *Delta) {
	if r == nil {
		return
	}
	if _, ok := e.marks[r.src]; !ok {
		e.marks[r.src] = r.sm
	}
	for _, ev := range r.events {
		if ev.created {
			at := e.srcAt[ev.k.v]
			if at == nil {
				at = make(map[graph.NodeID]int)
				e.srcAt[ev.k.v] = at
			}
			at[r.src]++
		} else if at := e.srcAt[ev.k.v]; at != nil {
			at[r.src]--
			if at[r.src] == 0 {
				delete(at, r.src)
				if len(at) == 0 {
					delete(e.srcAt, ev.k.v)
				}
			}
		}
	}
	for p, added := range r.d.pending {
		if added {
			e.matches[p] = struct{}{}
		} else {
			delete(e.matches, p)
		}
		if d != nil {
			d.note(p, added)
		}
	}
}

// settle runs the shared priority-queue phase: it pops product nodes in
// nondecreasing distance order and relaxes their product successors,
// creating entries on first reach (Fig. 5 line 9). With all-zero seeds this
// is exactly the batch BFS of RPQ_NFA.
func (r *srcRepair) settle(q *pq.Heap[key]) {
	e, sm := r.e, r.sm
	for q.Len() > 0 {
		k, dist, _ := q.Pop()
		r.meter.AddNodes(1)
		ent := sm.table[k]
		if ent == nil || ent.dist != dist {
			continue // superseded
		}
		// The queue is monotone, so every cpre member with distance below
		// dist is final: mpre can be decided exactly, once, right here.
		ent.mpre = make(map[key]struct{}, len(ent.cpre))
		for p := range ent.cpre {
			r.meter.AddEdges(1)
			if pe := sm.table[p]; pe != nil && pe.dist+1 == dist {
				ent.mpre[p] = struct{}{}
			}
		}
		e.g.Successors(k.v, func(y graph.NodeID) bool {
			r.meter.AddEdges(1)
			for _, sy := range e.nfa.NextID(k.s, e.g.LabelIDAt(y)) {
				ky := key{y, sy}
				ey := sm.table[ky]
				cand := dist + 1
				switch {
				case ey == nil:
					ey = &entry{
						dist: cand,
						cpre: map[key]struct{}{k: {}},
						mpre: map[key]struct{}{k: {}},
					}
					sm.table[ky] = ey
					r.meter.AddEntries(1)
					r.noteCreated(ky)
					q.Push(ky, cand)
				case cand < ey.dist:
					ey.dist = cand
					ey.cpre[k] = struct{}{}
					ey.mpre = map[key]struct{}{k: {}}
					r.meter.AddEntries(1)
					q.Push(ky, cand)
				case cand == ey.dist:
					ey.cpre[k] = struct{}{}
					ey.mpre[k] = struct{}{}
				default:
					ey.cpre[k] = struct{}{}
				}
			}
			return true
		})
	}
}

// Graph returns the underlying graph (shared, mutated by Apply*).
func (e *Engine) Graph() *graph.Graph { return e.g }

// Query returns the compiled query.
func (e *Engine) Query() *rex.Ast { return e.ast }

// NumMatches returns |Q(G)|.
func (e *Engine) NumMatches() int { return len(e.matches) }

// HasMatch reports whether (src, dst) ∈ Q(G).
func (e *Engine) HasMatch(src, dst graph.NodeID) bool {
	_, ok := e.matches[Pair{src, dst}]
	return ok
}

// Matches returns Q(G) sorted by (Src, Dst). The slice is memoized
// against the graph's mutation generation — repeated calls between
// updates are O(1) — and shared: treat it as read-only; it is valid
// until the next Apply*.
func (e *Engine) Matches() []Pair {
	return e.sorted.Get(e.g, func() []Pair {
		out := make([]Pair, 0, len(e.matches))
		for p := range e.matches {
			out = append(out, p)
		}
		slices.SortFunc(out, comparePairs)
		return out
	})
}

// WriteAnswer serializes Q(G) in canonical text form: one line per match,
// "pair <src> <dst>", sorted by (Src, Dst). Identical answers produce
// identical bytes regardless of how they were computed (build, repair, or
// recovery replay); the durability layer's parity checks and the incgraphd
// answer dumps rely on this. The bytes are rendered once per graph
// generation, by the first read after a mutation (O(|Q(G)|)); later reads
// in that generation only write the cached slice. Safe under the
// read-share contract.
func (e *Engine) WriteAnswer(w io.Writer) error {
	_, err := w.Write(e.answer.Get(e.g, e.renderAnswer))
	return err
}

// renderAnswer builds the WriteAnswer bytes in one exactly sized buffer.
func (e *Engine) renderAnswer() []byte {
	pairs := e.Matches()
	size := 0
	for _, p := range pairs {
		size += len("pair  \n") + graph.DecimalLen(int64(p.Src)) + graph.DecimalLen(int64(p.Dst))
	}
	buf := make([]byte, 0, size)
	for _, p := range pairs {
		buf = append(buf, "pair "...)
		buf = strconv.AppendInt(buf, int64(p.Src), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(p.Dst), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// BatchAnswer evaluates Q(G) from scratch and returns the match set: the
// RPQ_NFA baseline of the experiments.
func BatchAnswer(g *graph.Graph, ast *rex.Ast, meter *cost.Meter) ([]Pair, error) {
	e, err := NewEngine(g, ast, meter)
	if err != nil {
		return nil, err
	}
	return e.Matches(), nil
}

// Dist returns the shortest product distance recorded for (src, dst, s),
// or false when no marking exists. Tests use it to inspect pmark_e.
func (e *Engine) Dist(src, dst graph.NodeID, s int) (int, bool) {
	sm := e.marks[src]
	if sm == nil {
		return 0, false
	}
	ent := sm.table[key{dst, s}]
	if ent == nil {
		return 0, false
	}
	return ent.dist, true
}

// Check audits the engine against a fresh batch build: identical marking
// tables (keys, distances, cpre and mpre sets) and identical match sets.
func (e *Engine) Check() error {
	fresh, err := NewEngine(e.g.Clone(), e.ast, nil)
	if err != nil {
		return err
	}
	if len(fresh.marks) != len(e.marks) {
		return fmt.Errorf("rpq: %d source tables, batch rebuild has %d", len(e.marks), len(fresh.marks))
	}
	for u, sm := range e.marks {
		fm := fresh.marks[u]
		if fm == nil {
			return fmt.Errorf("rpq: spurious source table for %d", u)
		}
		if len(fm.table) != len(sm.table) {
			return fmt.Errorf("rpq: source %d has %d entries, batch has %d", u, len(sm.table), len(fm.table))
		}
		for k, ent := range sm.table {
			fe := fm.table[k]
			if fe == nil {
				return fmt.Errorf("rpq: source %d: spurious entry %v", u, k)
			}
			if fe.dist != ent.dist {
				return fmt.Errorf("rpq: source %d entry %v: dist %d, batch says %d", u, k, ent.dist, fe.dist)
			}
			if ent.seed != fe.seed {
				return fmt.Errorf("rpq: source %d entry %v: seed flag differs", u, k)
			}
			if err := sameKeySet(ent.cpre, fe.cpre); err != nil {
				return fmt.Errorf("rpq: source %d entry %v cpre: %v", u, k, err)
			}
			if err := sameKeySet(ent.mpre, fe.mpre); err != nil {
				return fmt.Errorf("rpq: source %d entry %v mpre: %v", u, k, err)
			}
		}
		if len(fm.acc) != len(sm.acc) {
			return fmt.Errorf("rpq: source %d acc size differs", u)
		}
		for v, n := range sm.acc {
			if fm.acc[v] != n {
				return fmt.Errorf("rpq: source %d acc[%d] = %d, batch says %d", u, v, n, fm.acc[v])
			}
		}
	}
	if len(fresh.matches) != len(e.matches) {
		return fmt.Errorf("rpq: %d matches, batch has %d", len(e.matches), len(fresh.matches))
	}
	for p := range e.matches {
		if _, ok := fresh.matches[p]; !ok {
			return fmt.Errorf("rpq: spurious match %v", p)
		}
	}
	// The inverted index must count entries exactly.
	wantAt := make(map[graph.NodeID]map[graph.NodeID]int)
	for u, sm := range e.marks {
		for k := range sm.table {
			at := wantAt[k.v]
			if at == nil {
				at = make(map[graph.NodeID]int)
				wantAt[k.v] = at
			}
			at[u]++
		}
	}
	if len(wantAt) != len(e.srcAt) {
		return fmt.Errorf("rpq: inverted index covers %d nodes, want %d", len(e.srcAt), len(wantAt))
	}
	for v, at := range wantAt {
		got := e.srcAt[v]
		if len(got) != len(at) {
			return fmt.Errorf("rpq: inverted index at node %d has %d sources, want %d", v, len(got), len(at))
		}
		for u, n := range at {
			if got[u] != n {
				return fmt.Errorf("rpq: inverted index at node %d source %d = %d, want %d", v, u, got[u], n)
			}
		}
	}
	return nil
}

func sameKeySet(a, b map[key]struct{}) error {
	if len(a) != len(b) {
		return fmt.Errorf("size %d vs %d", len(a), len(b))
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return fmt.Errorf("extra member %v", k)
		}
	}
	return nil
}
