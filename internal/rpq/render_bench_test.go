package rpq_test

import (
	"testing"

	"incgraph/internal/bench"
	"incgraph/internal/graph"
	"incgraph/internal/rpq"
)

func BenchmarkWriteAnswer(b *testing.B) {
	in, err := bench.NewRenderInputs()
	if err != nil {
		b.Fatal(err)
	}
	e, err := rpq.NewEngine(in.G.Clone(), in.RPQ, nil)
	if err != nil {
		b.Fatal(err)
	}
	apply := func(batch graph.Batch) error { _, err := e.Apply(batch); return err }
	bench.BenchWriteAnswer(b, "rpq", e.Graph(), apply, e.WriteAnswer)
}
