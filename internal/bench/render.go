package bench

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/iso"
	"incgraph/internal/kws"
	"incgraph/internal/rex"
)

// RenderInputs is the input of the engines' BenchmarkWriteAnswer: the
// e2ebench seed graph — dbpedia-sim densified with |E|/2 short-range
// edges — at a sixth of its scale (|V| = 10,000), with the same standing
// queries: KWS m=3 b=2, RPQ |Q|=4 and the first ISO (4,4,2) pattern from
// seed 5 up with a non-empty answer.
type RenderInputs struct {
	G   *graph.Graph
	KWS kws.Query
	RPQ *rex.Ast
	ISO *iso.Pattern
}

// NewRenderInputs generates the render benchmarks' inputs.
func NewRenderInputs() (*RenderInputs, error) {
	g, err := gen.Dataset("dbpedia", 0.5, 1)
	if err != nil {
		return nil, err
	}
	g = gen.Densify(g, g.NumEdges()/2, 51)
	in := &RenderInputs{G: g}
	if in.KWS, err = gen.KWSQuery(g, 3, 2, 1); err != nil {
		return nil, err
	}
	if in.RPQ, err = gen.RPQDense(g, 4, 1); err != nil {
		return nil, err
	}
	for s := int64(5); s < 55 && in.ISO == nil; s++ {
		p, err := gen.ISOQuery(g, 4, 4, 2, s)
		if err != nil {
			return nil, err
		}
		if iso.Build(g.Clone(), p, nil).NumMatches() > 0 {
			in.ISO = p
		}
	}
	if in.ISO == nil {
		return nil, fmt.Errorf("bench: no ISO (4,4,2) pattern with a non-empty answer")
	}
	return in, nil
}

// BenchWriteAnswer runs the cold and warm sub-benchmarks of one engine's
// WriteAnswer, under b.Run(class). A cold read is the first after an
// Apply: before each one, untimed, the engine applies the next 16-update
// batch of a fixed gen.Updates stream over g (its graph), or on the way
// back that batch's inverse, so the stream can cycle indefinitely. A warm
// read repeats a read within one generation. Both copy the answer into a
// reused buffer, as the incgraphd answer verb does.
func BenchWriteAnswer(b *testing.B, class string, g *graph.Graph, apply func(graph.Batch) error, write func(io.Writer) error) {
	const batches, size = 8, 16
	stream := gen.Updates(g, gen.UpdateSpec{Count: batches * size, InsertRatio: 0.5, Locality: 1, Seed: 101})
	steps := make([]graph.Batch, 0, 2*batches)
	for i := 0; i < batches; i++ {
		steps = append(steps, stream[i*size:(i+1)*size])
	}
	for i := batches - 1; i >= 0; i-- {
		steps = append(steps, inverse(steps[i]))
	}
	var buf bytes.Buffer
	read := func(b *testing.B) {
		buf.Reset()
		if err := write(&buf); err != nil {
			b.Fatal(err)
		}
	}
	next := 0 // the cycle position persists across b.N rounds
	b.Run(class, func(b *testing.B) {
		b.Run("cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := apply(steps[next]); err != nil {
					b.Fatal(err)
				}
				next = (next + 1) % len(steps)
				b.StartTimer()
				read(b)
			}
			b.SetBytes(int64(buf.Len()))
		})
		b.Run("warm", func(b *testing.B) {
			read(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read(b)
			}
			b.SetBytes(int64(buf.Len()))
		})
	})
}

// inverse returns the batch that undoes b: its updates reversed, each
// insertion turned into a deletion and vice versa.
func inverse(b graph.Batch) graph.Batch {
	out := make(graph.Batch, len(b))
	for i, u := range b {
		if u.Op == graph.Insert {
			out[len(b)-1-i] = graph.Del(u.From, u.To)
		} else {
			out[len(b)-1-i] = graph.Ins(u.From, u.To)
		}
	}
	return out
}
