package scc_test

import (
	"testing"

	"incgraph/internal/bench"
	"incgraph/internal/graph"
	"incgraph/internal/scc"
)

func BenchmarkWriteAnswer(b *testing.B) {
	in, err := bench.NewRenderInputs()
	if err != nil {
		b.Fatal(err)
	}
	s := scc.Build(in.G.Clone(), nil)
	apply := func(batch graph.Batch) error { _, err := s.Apply(batch); return err }
	bench.BenchWriteAnswer(b, "scc", s.Graph(), apply, s.WriteAnswer)
}
