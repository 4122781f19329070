package incgraph

import (
	"io"

	"incgraph/internal/cost"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/iso"
	"incgraph/internal/kws"
	"incgraph/internal/reach"
	"incgraph/internal/rex"
	"incgraph/internal/rpq"
	"incgraph/internal/scc"
)

// Graph model. Aliases re-export the internal implementations so callers
// outside this module can use them without importing internal paths.
type (
	// Graph is a directed graph with string-labeled nodes.
	Graph = graph.Graph
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Edge is a directed edge.
	Edge = graph.Edge
	// Update is a unit update: an edge insertion (possibly with new nodes)
	// or an edge deletion.
	Update = graph.Update
	// Batch is a batch update ΔG: a sequence of unit updates.
	Batch = graph.Batch
	// Meter accumulates the abstract work counters used to verify the
	// paper's localizability and relative-boundedness claims empirically.
	Meter = cost.Meter
	// Op is the kind of a unit update.
	Op = graph.Op
	// LabelID is the interned (process-wide) form of a node label; hot
	// loops compare LabelIDs instead of strings.
	LabelID = graph.LabelID
)

// NoLabel is the LabelID of nodes that do not exist.
const NoLabel = graph.NoLabel

// ErrBadUpdate reports an update that cannot be applied to the current
// graph (insertion of an existing edge, deletion of a missing one):
// client input error, not an operational failure. Apply/ApplyBatch and
// the durable/cluster paths wrap it; test with errors.Is.
var ErrBadUpdate = graph.ErrBadUpdate

// InternLabel returns the process-wide interned ID of label, assigning one
// on first sight.
func InternLabel(label string) LabelID { return graph.InternLabel(label) }

// LabelIDOf returns the interned ID of label without assigning one,
// reporting whether the label has ever been interned.
func LabelIDOf(label string) (LabelID, bool) { return graph.LabelIDOf(label) }

// LabelOf returns the string form of an interned label.
func LabelOf(id LabelID) string { return graph.LabelOf(id) }

// Unit update kinds.
const (
	// OpInsert is an edge insertion (possibly with new nodes).
	OpInsert = graph.Insert
	// OpDelete is an edge deletion.
	OpDelete = graph.Delete
)

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// ReadGraph parses the line-oriented text format ("n id label" / "e v w").
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serializes g in the text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// Ins returns an edge insertion between existing nodes.
func Ins(v, w NodeID) Update { return graph.Ins(v, w) }

// InsNew returns an edge insertion carrying labels for possibly-new nodes.
func InsNew(v, w NodeID, vl, wl string) Update { return graph.InsNew(v, w, vl, wl) }

// Del returns an edge deletion.
func Del(v, w NodeID) Update { return graph.Del(v, w) }

// Keyword search (KWS): localizable incremental algorithms of Section 4.2.
type (
	// KWSQuery is a keyword query (k1,…,km) with distance bound b.
	KWSQuery = kws.Query
	// KWSIndex maintains kdist(·) lists and Q(G) under updates.
	KWSIndex = kws.Index
	// KWSMatch is a match root with its per-keyword distances.
	KWSMatch = kws.Match
	// KWSDelta is the output change ΔO of a KWS update.
	KWSDelta = kws.Delta
)

// NewKWS builds the keyword-search index (the batch step) on g.
// The index shares g: subsequent Apply* calls mutate it.
func NewKWS(g *Graph, q KWSQuery) (*KWSIndex, error) { return kws.Build(g, q, nil) }

// NewKWSMetered is NewKWS with a work meter attached.
func NewKWSMetered(g *Graph, q KWSQuery, m *Meter) (*KWSIndex, error) { return kws.Build(g, q, m) }

// Regular path queries (RPQ): relatively bounded incrementalization of
// RPQ_NFA (Section 5.2).
type (
	// RPQEngine maintains pmark_e markings and Q(G) under updates.
	RPQEngine = rpq.Engine
	// RPQPair is one match (source, destination).
	RPQPair = rpq.Pair
	// RPQDelta is the output change ΔO of an RPQ update.
	RPQDelta = rpq.Delta
	// Regexp is a parsed regular path expression.
	Regexp = rex.Ast
)

// ParseRPQ parses a regular path expression such as "c.(b.a+c)*.c".
func ParseRPQ(query string) (*Regexp, error) { return rex.Parse(query) }

// NewRPQ compiles the query and evaluates it on g (the batch step).
func NewRPQ(g *Graph, query string) (*RPQEngine, error) { return rpq.Parse(g, query, nil) }

// NewRPQFromAst is NewRPQ for an already-parsed expression.
func NewRPQFromAst(g *Graph, q *Regexp) (*RPQEngine, error) { return rpq.NewEngine(g, q, nil) }

// Strongly connected components (SCC): relatively bounded
// incrementalization of Tarjan (Section 5.3).
type (
	// SCCState maintains the component partition, the contracted graph and
	// topological ranks under updates.
	SCCState = scc.State
	// SCCDelta lists components that appeared and disappeared.
	SCCDelta = scc.Delta
)

// NewSCC runs Tarjan on g and builds the maintained state.
func NewSCC(g *Graph) *SCCState { return scc.Build(g, nil) }

// SCCOf computes SCC(G) from scratch (the Tarjan batch baseline).
func SCCOf(g *Graph) [][]NodeID { return scc.Components(g) }

// Subgraph isomorphism (ISO): localizable incremental matching
// (Section 4 and the Appendix).
type (
	// Pattern is a subgraph-isomorphism query graph.
	Pattern = iso.Pattern
	// ISOIndex maintains the match set under updates.
	ISOIndex = iso.Index
	// ISOMatch is one embedding, aligned with Pattern.Nodes().
	ISOMatch = iso.Match
	// ISODelta is the output change ΔO of an ISO update.
	ISODelta = iso.Delta
)

// NewPattern validates a pattern graph.
func NewPattern(q *Graph) (*Pattern, error) { return iso.NewPattern(q) }

// NewISO enumerates Q(G) with VF2 and builds the maintained index.
func NewISO(g *Graph, p *Pattern) *ISOIndex { return iso.Build(g, p, nil) }

// FindMatches runs the VF2 batch algorithm without retaining an index.
// limit ≤ 0 means unlimited.
func FindMatches(g *Graph, p *Pattern, limit int) []ISOMatch { return iso.FindAll(g, p, limit, nil) }

// Single-source reachability (SSRP), the anchor of the paper's
// unboundedness reductions.
type SSRP = reach.SSRP

// NewSSRP builds single-source reachability from src.
func NewSSRP(g *Graph, src NodeID) (*SSRP, error) { return reach.Build(g, src, nil) }

// Workload generation (the experimental-study machinery of Section 6).
type (
	// GraphSpec parameterizes the synthetic graph generator.
	GraphSpec = gen.GraphSpec
	// UpdateSpec parameterizes the random update-stream generator.
	UpdateSpec = gen.UpdateSpec
)

// SyntheticGraph generates a random labeled graph.
func SyntheticGraph(spec GraphSpec) *Graph { return gen.Synthetic(spec) }

// Dataset returns a named workload graph ("dbpedia", "livej", "synthetic")
// at the given scale: seeded simulations of the paper's real-life graphs,
// matching their label count, density and SCC shape at 2–3 orders of
// magnitude fewer nodes (see gen.Dataset).
func Dataset(name string, scale float64, seed int64) (*Graph, error) {
	return gen.Dataset(name, scale, seed)
}

// RandomUpdates generates a batch ΔG valid against g.
func RandomUpdates(g *Graph, spec UpdateSpec) Batch { return gen.Updates(g, spec) }

// RandomKWSQuery samples a keyword query with m keywords from g's frequent
// labels and bound b.
func RandomKWSQuery(g *Graph, m, b int, seed int64) (KWSQuery, error) {
	return gen.KWSQuery(g, m, b, seed)
}

// RandomRPQQuery builds a random regular path expression with exactly size
// label occurrences over g's frequent labels.
func RandomRPQQuery(g *Graph, size int, seed int64) (*Regexp, error) {
	return gen.RPQQuery(g, size, seed)
}

// RandomISOPattern generates a weakly connected pattern with vq nodes, eq
// edges and backbone diameter dq, labeled from g's frequent labels.
func RandomISOPattern(g *Graph, vq, eq, dq int, seed int64) (*Pattern, error) {
	return gen.ISOQuery(g, vq, eq, dq, seed)
}
