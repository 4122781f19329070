package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"incgraph"
	"incgraph/internal/cost"
	"incgraph/internal/gen"
	"incgraph/internal/iso"
	"incgraph/internal/rpq"
	"incgraph/internal/scc"
)

// workload is one traffic mix against incgraphd; see README.md for why
// each exists. Both send the same inputs; cluster runs them through
// -cluster-spawn 2 -repl quorum.
type workload struct {
	name    string
	cluster bool
}

var workloads = []workload{
	{name: "ingest"},
	{name: "cluster", cluster: true},
}

// The seed graph is densified dbpedia-sim at this scale (|V| = 60,000 at
// -scale 1), fed in batches of batchSize updates.
const (
	dataset      = "dbpedia"
	datasetScale = 3
	batchSize    = 16
)

// maxRate caps the commits per second the pre-generated update stream can
// feed; a writer that outruns it ends its window early (the window length
// is printed), it never reuses updates.
const maxRate = 4000

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, "|"))
}

// Seeds of the fixed inputs. The standing queries are KWS m=3 b=2,
// RPQ |Q|=4 and ISO (|VQ|,|EQ|,dQ)=(4,4,2).
const (
	datasetSeed = 1
	querySeed   = 1
	// isoSeed is the first ISO pattern seed tried; the pattern is the
	// first one from it upward with a non-empty answer on the seed graph
	// (an empty standing query would measure nothing).
	isoSeed  = 5
	isoTries = 50
)

// classes is the daemon's attach order (-kws, -rpq, -iso, -scc).
var classes = []string{"kws", "rpq", "iso", "scc"}

// inputs is everything a run feeds the daemon, generated from the seed.
type inputs struct {
	g0      *incgraph.Graph // the seed graph
	kws     incgraph.KWSQuery
	rpq     *incgraph.Regexp
	pattern *incgraph.Pattern
	batches []incgraph.Batch
	// wire holds each batch rendered in the line protocol: its staged
	// lines followed by "commit".
	wire    [][]byte
	initial map[string]int // |Q(G)| per class on the seed graph
	updates int            // |ΔG| of the whole stream
}

// makeInputs generates a run's inputs. The seed graph and the standing
// queries are fixed per workload, like a dataset; the seed drives the
// update stream. Runs with different seeds so differ in where the
// updates land, not in how large the graph or the answers are.
func makeInputs(scale float64, seed int64, seconds float64) (*inputs, error) {
	g, err := gen.Dataset(dataset, datasetScale*scale, datasetSeed)
	if err != nil {
		return nil, err
	}
	// Densify adds short-range edges so ISO motifs exist (on the plain
	// simulation ISO (4,4,2) has no embeddings at all).
	g = gen.Densify(g, g.NumEdges()/2, datasetSeed+50)
	in := &inputs{g0: g, initial: make(map[string]int)}
	if in.kws, err = gen.KWSQuery(g, 3, 2, querySeed); err != nil {
		return nil, err
	}
	if in.rpq, err = gen.RPQDense(g, 4, querySeed); err != nil {
		return nil, err
	}
	for s := int64(isoSeed); s < isoSeed+isoTries && in.pattern == nil; s++ {
		p, err := gen.ISOQuery(g, 4, 4, 2, s)
		if err != nil {
			return nil, err
		}
		if iso.Build(g.Clone(), p, nil).NumMatches() > 0 {
			in.pattern = p
		}
	}
	if in.pattern == nil {
		return nil, fmt.Errorf("no ISO (4,4,2) pattern with a non-empty answer on the seed graph")
	}
	engines, err := in.buildEngines(g)
	if err != nil {
		return nil, err
	}
	for _, m := range engines {
		if m.Size() == 0 {
			return nil, fmt.Errorf("standing %s query has an empty initial answer: it would measure nothing", m.Class())
		}
		in.initial[m.Class()] = m.Size()
	}

	commits := int(seconds*maxRate) + recoveryBatches
	stream := gen.Updates(g, gen.UpdateSpec{Count: commits * batchSize, InsertRatio: 0.5, Locality: 1, Seed: seed + 100})
	in.updates = len(stream)
	for len(stream) > 0 {
		n := min(batchSize, len(stream))
		b := stream[:n:n]
		stream = stream[n:]
		in.batches = append(in.batches, b)
		in.wire = append(in.wire, renderBatch(b))
	}
	return in, nil
}

func renderBatch(b incgraph.Batch) []byte {
	var buf bytes.Buffer
	for _, u := range b {
		op := "+"
		if u.Op == incgraph.OpDelete {
			op = "-"
		}
		fmt.Fprintf(&buf, "%s %d %d\n", op, u.From, u.To)
	}
	buf.WriteString("commit\n")
	return buf.Bytes()
}

// buildEngines builds the four standing queries, in the daemon's attach
// order, each on its own clone of g.
func (in *inputs) buildEngines(g *incgraph.Graph) ([]incgraph.Maintained, error) {
	out := make([]incgraph.Maintained, 0, len(classes))
	for _, class := range classes {
		m, _, err := in.buildEngine(class, g.Clone(), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// buildEngine builds one standing query on g. est, for the classes
// behind the cost router (kws, iso), reports the router's verdict on the
// most recent Apply.
func (in *inputs) buildEngine(class string, g *incgraph.Graph, meter *incgraph.Meter) (m incgraph.Maintained, est func() cost.Estimate, err error) {
	switch class {
	case "kws":
		ix, err := incgraph.NewKWSMetered(g, in.kws, meter)
		if err != nil {
			return nil, nil, err
		}
		return incgraph.MaintainKWS(ix), ix.LastEstimate, nil
	case "rpq":
		e, err := rpq.NewEngine(g, in.rpq, meter)
		if err != nil {
			return nil, nil, err
		}
		return incgraph.MaintainRPQ(e), nil, nil
	case "iso":
		ix := iso.Build(g, in.pattern, meter)
		return incgraph.MaintainISO(ix), ix.LastEstimate, nil
	case "scc":
		return incgraph.MaintainSCC(scc.Build(g, meter)), nil, nil
	}
	return nil, nil, fmt.Errorf("unknown class %q", class)
}

// expectedAnswers builds every engine from scratch on the seed graph
// with the first n batches applied, and returns the canonical answers
// the daemon must serve after committing exactly those batches.
func (in *inputs) expectedAnswers(n int) (map[string][]byte, error) {
	g := in.g0.Clone()
	for i, b := range in.batches[:n] {
		if err := g.ApplyBatch(b); err != nil {
			return nil, fmt.Errorf("replaying batch %d: %w", i, err)
		}
	}
	engines, err := in.buildEngines(g)
	if err != nil {
		return nil, err
	}
	return answersOf(engines)
}

func answersOf(engines []incgraph.Maintained) (map[string][]byte, error) {
	out := make(map[string][]byte, len(engines))
	for _, m := range engines {
		var buf bytes.Buffer
		if err := m.WriteAnswer(&buf); err != nil {
			return nil, fmt.Errorf("%s answer: %w", m.Class(), err)
		}
		out[m.Class()] = buf.Bytes()
	}
	return out, nil
}

// checkAnswers compares served answers with the expected ones and
// returns one description per class that differs or is missing.
func checkAnswers(got, want map[string][]byte) []string {
	var bad []string
	for _, class := range classes {
		g, ok := got[class]
		switch {
		case !ok:
			bad = append(bad, class+": no answer")
		case !bytes.Equal(g, want[class]):
			bad = append(bad, fmt.Sprintf("%s: %d bytes served, %d expected", class, len(g), len(want[class])))
		}
	}
	return bad
}

// describe is the inputs line printed with every run.
func (in *inputs) describe(w workload, seed int64, flags []string, genTime time.Duration) string {
	var q []string
	for _, class := range classes {
		q = append(q, fmt.Sprintf("%s=%d", class, in.initial[class]))
	}
	return fmt.Sprintf("# inputs: workload=%s seed=%d |V|=%d |E|=%d initial_answers{%s} batch=%d batches=%d updates_total=%d queries{kws=%s b=%d rpq=%s iso=%d nodes/%d edges} gen=%.2fs\n# daemon flags: %s",
		w.name, seed, in.g0.NumNodes(), in.g0.NumEdges(), strings.Join(q, " "),
		batchSize, len(in.batches), in.updates,
		strings.Join(in.kws.Keywords, ","), in.kws.Bound, in.rpq,
		in.pattern.Graph().NumNodes(), in.pattern.Graph().NumEdges(),
		genTime.Seconds(), strings.Join(flags, " "))
}
