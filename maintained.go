package incgraph

import (
	"fmt"
	"io"
)

// Maintained is the common surface of the four incrementally maintained
// query classes: apply a batch ΔG, learn how the answer moved. It lets
// callers drive heterogeneous standing queries uniformly (see
// examples/social_stream for the long-hand version).
//
// Concurrency: Apply requires exclusive access to the value and its graph
// (graph mutation is exclusive), but internally parallelizes both the
// mutation step — large batches apply shard-parallel via the two-phase
// protocol of the sharded substrate (Graph.SetShards) — and the repair
// work, across the graph's Parallelism() workers; deltas are merged
// deterministically, so results are identical at any worker or shard
// count. Between Apply calls the KWS, RPQ and ISO engines with
// Parallelism() > 1 leave the graph read-shareable, so their read-only
// methods (Size, Class, Graph and the concrete types' accessors) may be
// called from multiple goroutines. At Parallelism() == 1 — and for SCC,
// which repairs sequentially — the engines skip that housekeeping: call
// Graph().PrepareConcurrentReads() before sharing reads across
// goroutines.
type Maintained interface {
	// Apply applies ΔG to the underlying graph and repairs the answer,
	// returning a summary of ΔO. Class-specific deltas remain available on
	// the concrete types.
	Apply(batch Batch) (DeltaSummary, error)
	// Size returns the current answer cardinality (|Q(G)| — match roots,
	// match pairs, embeddings, or components).
	Size() int
	// Class names the query class ("kws", "rpq", "scc", "iso").
	Class() string
	// Graph returns the maintained graph (shared and mutated by Apply).
	Graph() *Graph
	// WriteAnswer serializes the current answer Q(G) in the class's
	// canonical text form: identical answers produce identical bytes,
	// whatever worker count, shard count, or recovery path computed them.
	// The durability layer's recovery-parity guarantee is stated — and
	// tested — in terms of these bytes.
	//
	// Cost: the bytes are rendered at most once per graph generation,
	// lazily. The first read after a mutation pays an O(|Q(G)|) render
	// (O(|V|) for SCC, whose answer covers every node); later reads in
	// that generation pay one w.Write of the cached slice. Apply does no
	// render work. The cached bytes are shared and read-only (WriteAnswer
	// hands them to w.Write, which by the io.Writer contract must not
	// modify or retain them), and any mutation invalidates them. Safe
	// under the read-share contract above: concurrent first readers may
	// each render, and all see the same bytes.
	WriteAnswer(w io.Writer) error
}

// DeltaSummary is the class-agnostic view of an output change ΔO.
type DeltaSummary struct {
	Added, Removed, Updated int
}

// Empty reports whether the answer was unaffected.
func (d DeltaSummary) Empty() bool { return d.Added == 0 && d.Removed == 0 && d.Updated == 0 }

func (d DeltaSummary) String() string {
	return fmt.Sprintf("ΔO{+%d −%d ~%d}", d.Added, d.Removed, d.Updated)
}

// MaintainKWS adapts a keyword-search index.
func MaintainKWS(ix *KWSIndex) Maintained { return kwsAdapter{ix} }

// MaintainRPQ adapts a regular-path-query engine.
func MaintainRPQ(e *RPQEngine) Maintained { return rpqAdapter{e} }

// MaintainSCC adapts a strongly-connected-components state.
func MaintainSCC(s *SCCState) Maintained { return sccAdapter{s} }

// MaintainISO adapts a subgraph-isomorphism index.
func MaintainISO(ix *ISOIndex) Maintained { return isoAdapter{ix} }

type kwsAdapter struct{ ix *KWSIndex }

func (a kwsAdapter) Apply(batch Batch) (DeltaSummary, error) {
	d, err := a.ix.Apply(batch)
	if err != nil {
		return DeltaSummary{}, err
	}
	return DeltaSummary{Added: len(d.Added), Removed: len(d.Removed), Updated: len(d.Updated)}, nil
}
func (a kwsAdapter) Size() int                     { return a.ix.NumMatches() }
func (a kwsAdapter) Class() string                 { return "kws" }
func (a kwsAdapter) Graph() *Graph                 { return a.ix.Graph() }
func (a kwsAdapter) WriteAnswer(w io.Writer) error { return a.ix.WriteAnswer(w) }

type rpqAdapter struct{ e *RPQEngine }

func (a rpqAdapter) Apply(batch Batch) (DeltaSummary, error) {
	d, err := a.e.Apply(batch)
	if err != nil {
		return DeltaSummary{}, err
	}
	return DeltaSummary{Added: len(d.Added), Removed: len(d.Removed)}, nil
}
func (a rpqAdapter) Size() int                     { return a.e.NumMatches() }
func (a rpqAdapter) Class() string                 { return "rpq" }
func (a rpqAdapter) Graph() *Graph                 { return a.e.Graph() }
func (a rpqAdapter) WriteAnswer(w io.Writer) error { return a.e.WriteAnswer(w) }

type sccAdapter struct{ s *SCCState }

func (a sccAdapter) Apply(batch Batch) (DeltaSummary, error) {
	d, err := a.s.Apply(batch)
	if err != nil {
		return DeltaSummary{}, err
	}
	return DeltaSummary{Added: len(d.Added), Removed: len(d.Removed)}, nil
}
func (a sccAdapter) Size() int                     { return a.s.NumComponents() }
func (a sccAdapter) Class() string                 { return "scc" }
func (a sccAdapter) Graph() *Graph                 { return a.s.Graph() }
func (a sccAdapter) WriteAnswer(w io.Writer) error { return a.s.WriteAnswer(w) }

type isoAdapter struct{ ix *ISOIndex }

func (a isoAdapter) Apply(batch Batch) (DeltaSummary, error) {
	d, err := a.ix.Apply(batch)
	if err != nil {
		return DeltaSummary{}, err
	}
	return DeltaSummary{Added: len(d.Added), Removed: len(d.Removed)}, nil
}
func (a isoAdapter) Size() int                     { return a.ix.NumMatches() }
func (a isoAdapter) Class() string                 { return "iso" }
func (a isoAdapter) Graph() *Graph                 { return a.ix.Graph() }
func (a isoAdapter) WriteAnswer(w io.Writer) error { return a.ix.WriteAnswer(w) }
