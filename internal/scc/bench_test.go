package scc_test

import (
	"testing"

	"incgraph/internal/bench"
	"incgraph/internal/gen"
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

// BenchmarkSCCBuild times Build — one Tarjan pass and the contracted
// graph — on the render inputs' graph (densified dbpedia-sim, |V| =
// 10,000). Build only reads the graph, so every round reuses it.
func BenchmarkSCCBuild(b *testing.B) {
	in, err := bench.NewRenderInputs()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scc.Build(in.G, nil)
	}
}

// BenchmarkSCCApply times Apply of one 16-update batch, the serving
// commit size, on the render inputs' graph. The batches come from a fixed
// gen.Updates stream (half insertions, all topology-local, as in the
// end-to-end ingest workload) followed by their inverses in reverse
// order, so the cycle returns the graph to its start and can repeat.
func BenchmarkSCCApply(b *testing.B) {
	in, err := bench.NewRenderInputs()
	if err != nil {
		b.Fatal(err)
	}
	s := scc.Build(in.G.Clone(), nil)
	const batches, size = 64, 16
	stream := gen.Updates(s.Graph(), gen.UpdateSpec{Count: batches * size, InsertRatio: 0.5, Locality: 1, Seed: 57})
	steps := make([]graph.Batch, 0, 2*batches)
	for i := 0; i < batches; i++ {
		steps = append(steps, stream[i*size:(i+1)*size])
	}
	for i := batches - 1; i >= 0; i-- {
		steps = append(steps, steps[i].Inverse())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Apply(steps[i%len(steps)]); err != nil {
			b.Fatal(err)
		}
	}
}
