package iso_test

import (
	"testing"

	"incgraph/internal/bench"
	"incgraph/internal/graph"
	"incgraph/internal/iso"
)

func BenchmarkWriteAnswer(b *testing.B) {
	in, err := bench.NewRenderInputs()
	if err != nil {
		b.Fatal(err)
	}
	ix := iso.Build(in.G.Clone(), in.ISO, nil)
	apply := func(batch graph.Batch) error { _, err := ix.Apply(batch); return err }
	bench.BenchWriteAnswer(b, "iso", ix.Graph(), apply, ix.WriteAnswer)
}
