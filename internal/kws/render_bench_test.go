package kws_test

import (
	"testing"

	"incgraph/internal/bench"
	"incgraph/internal/graph"
	"incgraph/internal/kws"
)

func BenchmarkWriteAnswer(b *testing.B) {
	in, err := bench.NewRenderInputs()
	if err != nil {
		b.Fatal(err)
	}
	ix, err := kws.Build(in.G.Clone(), in.KWS, nil)
	if err != nil {
		b.Fatal(err)
	}
	apply := func(batch graph.Batch) error { _, err := ix.Apply(batch); return err }
	bench.BenchWriteAnswer(b, "kws", ix.Graph(), apply, ix.WriteAnswer)
}
