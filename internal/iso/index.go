package iso

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// Index is the incrementally maintained match set Q(G) for one pattern,
// with an edge→matches inverted index so deletions are O(#dead matches)
// and insertions are confined to the d_Q-neighborhood of ΔG.
type Index struct {
	g *graph.Graph
	p *Pattern
	// matches maps the canonical key to the match.
	matches map[string]Match
	// byEdge maps a graph edge to the keys of the matches whose pattern
	// edges use it.
	byEdge map[graph.Edge]map[string]struct{}
	// sorted memoizes Matches against the graph mutation generation (the
	// match set only moves inside Apply*, which mutates the graph first).
	sorted graph.GenCache[[]Match]
	// answer memoizes the WriteAnswer bytes the same way.
	answer graph.GenCache[[]byte]
	// lastEst records the repair-vs-batch decision of the most recent
	// Apply (cost-based fallback); see Apply and LastEstimate.
	lastEst cost.Estimate
	meter   *cost.Meter
}

// Delta describes changes ΔO to Q(G).
type Delta struct {
	Added   []Match
	Removed []Match
}

// Empty reports whether the output was unaffected.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// Build enumerates Q(G) with VF2 and indexes it. The meter may be nil.
// With workers available the enumeration fans out across g.Parallelism()
// workers (indexing the collected matches stays serial, in enumeration
// order); sequential builds stream matches straight into the index
// without materializing Q(G) twice.
func Build(g *graph.Graph, p *Pattern, meter *cost.Meter) *Index {
	ix := &Index{
		g:       g,
		p:       p,
		matches: make(map[string]Match),
		byEdge:  make(map[graph.Edge]map[string]struct{}),
		meter:   meter,
	}
	if workers := g.Parallelism(); workers > 1 {
		for _, m := range findAllParallel(g, p, workers, meter) {
			ix.add(m)
		}
		return ix
	}
	Enumerate(g, p, nil, meter, func(m Match) bool {
		ix.add(m)
		return true
	})
	return ix
}

// BatchAnswer recomputes Q(G) from scratch: the VF2 baseline.
func BatchAnswer(g *graph.Graph, p *Pattern, meter *cost.Meter) []Match {
	return FindAll(g, p, 0, meter)
}

func (ix *Index) add(m Match) bool {
	k := m.Key()
	if _, dup := ix.matches[k]; dup {
		return false
	}
	ix.matches[k] = m
	ix.p.EdgeImages(m, func(e graph.Edge) {
		set := ix.byEdge[e]
		if set == nil {
			set = make(map[string]struct{})
			ix.byEdge[e] = set
		}
		set[k] = struct{}{}
	})
	ix.meter.AddEntries(1)
	return true
}

func (ix *Index) remove(k string) (Match, bool) {
	m, ok := ix.matches[k]
	if !ok {
		return nil, false
	}
	delete(ix.matches, k)
	ix.p.EdgeImages(m, func(e graph.Edge) {
		if set := ix.byEdge[e]; set != nil {
			delete(set, k)
			if len(set) == 0 {
				delete(ix.byEdge, e)
			}
		}
	})
	ix.meter.AddEntries(1)
	return m, true
}

// Graph returns the underlying graph (shared, mutated by Apply*).
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Pattern returns the pattern.
func (ix *Index) Pattern() *Pattern { return ix.p }

// NumMatches returns |Q(G)|.
func (ix *Index) NumMatches() int { return len(ix.matches) }

// Matches returns Q(G) sorted by canonical key. The slice is memoized
// against the graph's mutation generation — repeated calls between
// updates are O(1) — and shared: treat it as read-only; it is valid
// until the next Apply*.
func (ix *Index) Matches() []Match {
	return ix.sorted.Get(ix.g, func() []Match {
		keys := make([]string, 0, len(ix.matches))
		for k := range ix.matches {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		out := make([]Match, len(keys))
		for i, k := range keys {
			out[i] = ix.matches[k]
		}
		return out
	})
}

// WriteAnswer serializes Q(G) in canonical text form: one line per
// embedding, "match <v1> <v2> ...", aligned with Pattern.Nodes(), in
// canonical-key order. Identical match sets produce identical bytes
// regardless of the path that computed them (build, incremental repair,
// batch fallback, or recovery replay); the durability layer's parity
// checks and the incgraphd answer dumps rely on this. The bytes are
// rendered once per graph generation, by the first read after a mutation
// (O(|Q(G)|)); later reads in that generation only write the cached
// slice. Safe under the read-share contract.
func (ix *Index) WriteAnswer(w io.Writer) error {
	_, err := w.Write(ix.answer.Get(ix.g, ix.renderAnswer))
	return err
}

// renderAnswer builds the WriteAnswer bytes in one exactly sized buffer.
func (ix *Index) renderAnswer() []byte {
	ms := ix.Matches()
	size := 0
	for _, m := range ms {
		size += len("match\n") + graph.IntsLen(m)
	}
	buf := make([]byte, 0, size)
	for _, m := range ms {
		buf = append(buf, "match"...)
		buf = graph.AppendInts(buf, m)
		buf = append(buf, '\n')
	}
	return buf
}

// Apply processes a batch ΔG with IncISO: deletions drop exactly the
// indexed matches that use a deleted edge; insertions run VF2 restricted to
// the d_Q-neighborhood G_dQ(ΔG+) and add the matches not seen before.
//
// ΔG itself is applied through Graph.ApplyBatch, so large batches mutate
// shard-parallel; the match bookkeeping below only reads edge identities,
// never graph state that the reorder could disturb. Before repairing,
// Apply consults the cost model (cost.EstimateISO): when the batch seeds
// more anchored enumerations than VF2 would open root-candidate subtrees —
// the regime where IncISO loses to VF2 at batch granularity — it falls
// back to re-enumerating Q(G) from scratch and diffing the match sets.
// The decision is a pure function of graph and batch statistics, so it is
// identical at every worker and shard count.
func (ix *Index) Apply(batch graph.Batch) (Delta, error) {
	var d Delta
	// Node creation side effects of the raw batch.
	for _, u := range batch {
		if u.Op == graph.Insert {
			ix.g.EnsureNode(u.From, u.FromLabel)
			ix.g.EnsureNode(u.To, u.ToLabel)
		}
	}
	batch = batch.Normalize()
	for _, u := range batch {
		if u.Op == graph.Delete && !ix.g.HasEdge(u.From, u.To) {
			return Delta{}, fmt.Errorf("iso: %w: delete of missing edge (%d,%d)", graph.ErrBadUpdate, u.From, u.To)
		}
		if u.Op == graph.Insert && ix.g.HasEdge(u.From, u.To) {
			return Delta{}, fmt.Errorf("iso: %w: insert of existing edge (%d,%d)", graph.ErrBadUpdate, u.From, u.To)
		}
	}
	ins, dels := batch.Split()
	rootCands := ix.g.NumNodesWithLabelID(ix.p.Graph().LabelIDAt(ix.p.order[0]))
	// Count the anchored enumerations the incremental path would seed: one
	// per label-compatible pattern edge per insertion (anchoredMatches).
	// Both this count and the shard footprint are skipped on the tiny-batch
	// hot path, which the estimator's floor always routes incremental.
	anchors, shardsTouched := 0, 0
	if len(batch) >= cost.FallbackMinBatch {
		pg := ix.p.Graph()
		for _, u := range ins {
			lf, lt := ix.g.LabelIDAt(u.From), ix.g.LabelIDAt(u.To)
			pg.Edges(func(pe graph.Edge) bool {
				if pg.LabelIDAt(pe.From) == lf && pg.LabelIDAt(pe.To) == lt &&
					(pe.From != pe.To || u.From == u.To) {
					anchors++
				}
				return true
			})
		}
		shardsTouched = len(batch.TouchedShards(ix.g))
	}
	ix.lastEst = cost.EstimateISO(len(ins), len(dels), rootCands, anchors, shardsTouched)
	// Structural updates first, in one (shard-parallel) batch application;
	// the batch was validated above, so it cannot fail partway.
	if err := ix.g.ApplyBatch(batch); err != nil {
		return Delta{}, err
	}
	if ix.lastEst.PreferBatch() {
		return ix.rebuildDiff(), nil
	}
	// (1) Deletions: remove dead matches via the inverted index (which
	// references edge identities only, so it reads the same either side of
	// the mutation).
	for _, u := range dels {
		e := graph.Edge{From: u.From, To: u.To}
		for k := range ix.byEdge[e] {
			if m, ok := ix.remove(k); ok {
				d.Removed = append(d.Removed, m)
			}
		}
	}
	// (2)+(3) Insertions: delta-enumerate on the post-update graph. Every
	// match not in the old Q(G) must use at least one inserted edge, so
	// anchoring each pattern edge on each inserted edge enumerates exactly
	// the new matches — all of them inside the d_Q-neighborhood of ΔG+,
	// which is what keeps IncISO localizable. The per-edge anchored
	// enumerations are pure reads of the post-update graph, so they fan
	// out across workers; indexing (with its cross-anchor dedup) stays
	// serial, in insertion order, matching the sequential result exactly.
	workers := ix.g.Parallelism()
	if workers > 1 {
		// Unconditionally (even for delete-only batches): parallel engines
		// leave the graph read-shareable between Apply calls.
		ix.g.PrepareConcurrentReads()
	}
	if len(ins) > 0 {
		found := make([][]Match, len(ins))
		meters := make([]cost.Meter, workers)
		graph.ParallelFor(workers, len(ins), func(worker, i int) {
			found[i] = ix.anchoredMatches(ins[i], &meters[worker])
		})
		for i := range meters {
			ix.meter.Merge(&meters[i])
		}
		for _, ms := range found {
			for _, m := range ms {
				if ix.add(m) {
					d.Added = append(d.Added, m)
				}
			}
		}
	}
	sortMatches(d.Added)
	sortMatches(d.Removed)
	return d, nil
}

// rebuildDiff is the batch-fallback path of Apply: with ΔG already
// applied, re-enumerate Q(G) from scratch (the VF2 baseline, parallel
// when workers are available), rebuild the inverted index, and derive the
// Delta by diffing old and new match sets by canonical key — the exact
// output change, same as the incremental path.
func (ix *Index) rebuildDiff() Delta {
	old := ix.matches
	ix.matches = make(map[string]Match, len(old))
	ix.byEdge = make(map[graph.Edge]map[string]struct{}, len(ix.byEdge))
	if workers := ix.g.Parallelism(); workers > 1 {
		for _, m := range findAllParallel(ix.g, ix.p, workers, ix.meter) {
			ix.add(m)
		}
	} else {
		Enumerate(ix.g, ix.p, nil, ix.meter, func(m Match) bool {
			ix.add(m)
			return true
		})
	}
	var d Delta
	for k, m := range ix.matches {
		if _, was := old[k]; !was {
			d.Added = append(d.Added, m)
		}
	}
	for k, m := range old {
		if _, is := ix.matches[k]; !is {
			d.Removed = append(d.Removed, m)
		}
	}
	sortMatches(d.Added)
	sortMatches(d.Removed)
	return d
}

// LastEstimate returns the cost-model verdict of the most recent Apply:
// the predicted |AFF|, the repair-vs-batch costs, and the shard footprint
// of the batch. Benchmarks and tests use it to observe routing.
func (ix *Index) LastEstimate() cost.Estimate { return ix.lastEst }

// anchoredMatches enumerates the matches created by inserted edge u by
// pinning every label-compatible pattern edge onto it. Read-only (the
// same match may surface from several anchors; the caller dedups via add),
// so anchors enumerate concurrently.
func (ix *Index) anchoredMatches(u graph.Update, meter *cost.Meter) []Match {
	var out []Match
	lf, lt := ix.g.LabelIDAt(u.From), ix.g.LabelIDAt(u.To)
	pg := ix.p.Graph()
	pg.Edges(func(pe graph.Edge) bool {
		if pg.LabelIDAt(pe.From) != lf || pg.LabelIDAt(pe.To) != lt {
			return true
		}
		if pe.From == pe.To && u.From != u.To {
			return true
		}
		anchor := map[graph.NodeID]graph.NodeID{pe.From: u.From}
		if pe.From != pe.To {
			anchor[pe.To] = u.To
		}
		EnumerateAnchored(ix.g, ix.p, anchor, meter, func(m Match) bool {
			out = append(out, m)
			return true
		})
		return true
	})
	return out
}

// ApplyUnitwise is IncISOn, the baseline of the paper's experiments: each
// unit update is processed alone, and each insertion pays a full VF2 pass
// over the d_Q-neighborhood of its edge (rather than IncISO's anchored
// delta enumeration).
func (ix *Index) ApplyUnitwise(batch graph.Batch) (Delta, error) {
	var total Delta
	for _, u := range batch {
		if u.Op == graph.Insert {
			ix.g.EnsureNode(u.From, u.FromLabel)
			ix.g.EnsureNode(u.To, u.ToLabel)
			if ix.g.HasEdge(u.From, u.To) {
				return Delta{}, fmt.Errorf("iso: %w: insert of existing edge (%d,%d)", graph.ErrBadUpdate, u.From, u.To)
			}
			ix.g.AddEdge(u.From, u.To)
			scope := make(map[graph.NodeID]bool)
			ix.g.ForEachWithin([]graph.NodeID{u.From, u.To}, ix.p.Diameter(), func(v graph.NodeID, _ int) bool {
				scope[v] = true
				return true
			})
			ix.meter.AddNodes(len(scope))
			Enumerate(ix.g, ix.p, scope, ix.meter, func(m Match) bool {
				if ix.add(m) {
					total.Added = append(total.Added, m)
				}
				return true
			})
			continue
		}
		if !ix.g.DeleteEdge(u.From, u.To) {
			return Delta{}, fmt.Errorf("iso: %w: delete of missing edge (%d,%d)", graph.ErrBadUpdate, u.From, u.To)
		}
		e := graph.Edge{From: u.From, To: u.To}
		for k := range ix.byEdge[e] {
			if m, ok := ix.remove(k); ok {
				total.Removed = append(total.Removed, m)
			}
		}
	}
	total = total.compact()
	return total, nil
}

// compact cancels add/remove pairs of the same match accumulated across
// unit steps.
func (d Delta) compact() Delta {
	state := make(map[string]int)
	byKey := make(map[string]Match)
	for _, m := range d.Added {
		state[m.Key()]++
		byKey[m.Key()] = m
	}
	for _, m := range d.Removed {
		state[m.Key()]--
		byKey[m.Key()] = m
	}
	var out Delta
	for k, n := range state {
		switch {
		case n > 0:
			out.Added = append(out.Added, byKey[k])
		case n < 0:
			out.Removed = append(out.Removed, byKey[k])
		}
	}
	sortMatches(out.Added)
	sortMatches(out.Removed)
	return out
}

// sortMatches orders ms by canonical key, computing each key once.
func sortMatches(ms []Match) {
	type keyed struct {
		key string
		m   Match
	}
	ks := make([]keyed, len(ms))
	for i, m := range ms {
		ks[i] = keyed{m.Key(), m}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i, k := range ks {
		ms[i] = k.m
	}
}

// Check audits the index against a fresh VF2 run: identical match sets and
// a consistent inverted index.
func (ix *Index) Check() error {
	truth := BatchAnswer(ix.g, ix.p, nil)
	if len(truth) != len(ix.matches) {
		return fmt.Errorf("iso: %d matches, batch recompute has %d", len(ix.matches), len(truth))
	}
	for _, m := range truth {
		if _, ok := ix.matches[m.Key()]; !ok {
			return fmt.Errorf("iso: missing match %v", m)
		}
		if err := ix.p.Verify(ix.g, m); err != nil {
			return err
		}
	}
	// Inverted index must cover exactly the pattern-edge images.
	count := 0
	for e, set := range ix.byEdge {
		if !ix.g.HasEdge(e.From, e.To) {
			return fmt.Errorf("iso: index references missing edge %v", e)
		}
		count += len(set)
		for k := range set {
			if _, ok := ix.matches[k]; !ok {
				return fmt.Errorf("iso: index references dead match %s", k)
			}
		}
	}
	want := 0
	for _, m := range ix.matches {
		seen := make(map[graph.Edge]bool)
		ix.p.EdgeImages(m, func(e graph.Edge) {
			if !seen[e] {
				seen[e] = true
				want++
			}
		})
	}
	if count != want {
		return fmt.Errorf("iso: inverted index has %d entries, want %d", count, want)
	}
	return nil
}
