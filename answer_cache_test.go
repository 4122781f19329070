package incgraph_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"incgraph"
	"incgraph/internal/gen"
)

// Answer-cache coherence: every class memoizes its canonical WriteAnswer
// bytes per graph generation. These tests pin that the cached bytes are
// always the bytes a from-scratch build would serve, and the exact text
// format the old per-read renderers produced.

// answerFixture is a small densified dbpedia-sim graph with one standing
// query per class, each chosen to have a non-empty answer.
type answerFixture struct {
	g       *incgraph.Graph
	kws     incgraph.KWSQuery
	rpq     *incgraph.Regexp
	pattern *incgraph.Pattern
}

func newAnswerFixture(t testing.TB) *answerFixture {
	t.Helper()
	g, err := gen.Dataset("dbpedia", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	g = gen.Densify(g, g.NumEdges()/2, 51)
	f := &answerFixture{g: g}
	if f.kws, err = gen.KWSQuery(g, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	if f.rpq, err = gen.RPQDense(g, 3, 1); err != nil {
		t.Fatal(err)
	}
	if f.pattern, err = gen.ISOQuery(g, 3, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	for _, class := range answerClasses {
		if f.build(t, class, g.Clone()).Size() == 0 {
			t.Fatalf("%s: empty answer on the fixture graph; the test would check nothing", class)
		}
	}
	return f
}

var answerClasses = []string{"kws", "rpq", "iso", "scc"}

// build constructs class's standing query from scratch on g.
func (f *answerFixture) build(t testing.TB, class string, g *incgraph.Graph) incgraph.Maintained {
	t.Helper()
	switch class {
	case "kws":
		ix, err := incgraph.NewKWS(g, f.kws)
		if err != nil {
			t.Fatal(err)
		}
		return incgraph.MaintainKWS(ix)
	case "rpq":
		e, err := incgraph.NewRPQFromAst(g, f.rpq)
		if err != nil {
			t.Fatal(err)
		}
		return incgraph.MaintainRPQ(e)
	case "iso":
		return incgraph.MaintainISO(incgraph.NewISO(g, f.pattern))
	case "scc":
		return incgraph.MaintainSCC(incgraph.NewSCC(g))
	}
	t.Fatalf("unknown class %q", class)
	return nil
}

func answerBytes(t testing.TB, m incgraph.Maintained) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteAnswer(&buf); err != nil {
		t.Fatalf("%s: WriteAnswer: %v", m.Class(), err)
	}
	return buf.Bytes()
}

// TestAnswerCacheCoherence drives a gen.Updates stream through each
// class's Apply and reads the answer between batches. After every batch —
// including batches that leave Q(G) unchanged and batches Apply rejects —
// the served bytes equal a from-scratch build's, and two reads within one
// generation return identical bytes.
func TestAnswerCacheCoherence(t *testing.T) {
	f := newAnswerFixture(t)
	stream := gen.Updates(f.g, gen.UpdateSpec{Count: 40 * 8, InsertRatio: 0.5, Locality: 1, Seed: 7})
	fresh := f.g.MaxNodeID() + 1
	for _, class := range answerClasses {
		t.Run(class, func(t *testing.T) {
			m := f.build(t, class, f.g.Clone())
			check := func(step string) {
				t.Helper()
				got := answerBytes(t, m)
				if again := answerBytes(t, m); !bytes.Equal(got, again) {
					t.Fatalf("%s: two reads in one generation differ", step)
				}
				want := answerBytes(t, f.build(t, class, m.Graph().Clone()))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: served answer (%d bytes) differs from a from-scratch build (%d bytes)", step, len(got), len(want))
				}
			}
			check("initial")
			unchanged, rejected := 0, 0
			for i := 0; i < len(stream); i += 8 {
				d, err := m.Apply(stream[i : i+8])
				if err != nil {
					t.Fatalf("batch %d: %v", i/8, err)
				}
				if d.Empty() {
					unchanged++
				}
				check("after batch")
				if i%(5*8) != 0 {
					continue
				}
				// Rejected batches: a delete of a missing edge (a self-loop;
				// the stream never inserts one), alone and behind an
				// insertion that creates fresh nodes.
				v := f.g.EdgesSorted()[i].From
				missing := incgraph.Del(v, v)
				for _, bad := range []incgraph.Batch{
					{missing},
					{incgraph.InsNew(fresh, fresh+1, "l0", "l1"), missing},
				} {
					if _, err := m.Apply(bad); !errors.Is(err, incgraph.ErrBadUpdate) {
						t.Fatalf("batch %d: Apply(%v) = %v, want ErrBadUpdate", i/8, bad, err)
					}
					rejected++
					check("after rejected batch")
				}
				fresh += 2
			}
			if unchanged == 0 {
				t.Fatalf("no batch left Q(G) unchanged; the stream does not cover that case")
			}
			t.Logf("%d batches (%d with ΔO empty), %d rejected", len(stream)/8, unchanged, rejected)
		})
	}
}

// TestAnswerCacheConcurrentColdReads has readers race to fill each class's
// cold answer cache within one generation, per the GenCache read-share
// contract (run it under -race): every reader must see the from-scratch
// bytes.
func TestAnswerCacheConcurrentColdReads(t *testing.T) {
	f := newAnswerFixture(t)
	stream := gen.Updates(f.g, gen.UpdateSpec{Count: 3 * 8, InsertRatio: 0.5, Locality: 1, Seed: 11})
	for _, class := range answerClasses {
		t.Run(class, func(t *testing.T) {
			m := f.build(t, class, f.g.Clone())
			for i := 0; i < len(stream); i += 8 {
				if _, err := m.Apply(stream[i : i+8]); err != nil {
					t.Fatal(err)
				}
				m.Graph().PrepareConcurrentReads()
				got := make([][]byte, 4)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for r := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						var buf bytes.Buffer
						if err := m.WriteAnswer(&buf); err != nil {
							t.Error(err)
						}
						got[r] = buf.Bytes()
					}()
				}
				close(start)
				wg.Wait()
				want := answerBytes(t, f.build(t, class, m.Graph().Clone()))
				for r, b := range got {
					if !bytes.Equal(b, want) {
						t.Fatalf("batch %d: reader %d got %d bytes, from-scratch build %d", i/8, r, len(b), len(want))
					}
				}
			}
		})
	}
}

// TestWriteAnswerFormat pins each class's canonical text byte for byte,
// extreme node IDs included.
func TestWriteAnswerFormat(t *testing.T) {
	g := incgraph.NewGraph()
	ids := []incgraph.NodeID{math.MinInt64, -10, -1, 0, 1, 99, math.MaxInt64}
	for i, v := range ids {
		g.AddNode(v, fmt.Sprintf("l%d", i%2))
	}
	for i := range ids {
		for j := range ids {
			if i != j && (i+2*j)%3 == 0 {
				g.AddEdge(ids[i], ids[j])
			}
		}
	}
	kws, err := incgraph.NewKWS(g.Clone(), incgraph.KWSQuery{Keywords: []string{"l0", "l1"}, Bound: 2})
	if err != nil {
		t.Fatal(err)
	}
	rpq, err := incgraph.NewRPQ(g.Clone(), "l0.l1*")
	if err != nil {
		t.Fatal(err)
	}
	pg := incgraph.NewGraph()
	pg.AddNode(0, "l0")
	pg.AddNode(1, "l1")
	pg.AddEdge(0, 1)
	pat, err := incgraph.NewPattern(pg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m    incgraph.Maintained
		want string
	}{
		{incgraph.MaintainKWS(kws), `root -9223372036854775808 0 1
root -10 1 0
root -1 0 1
root 0 1 0
root 1 0 1
root 99 1 0
root 9223372036854775807 0 1
`},
		{incgraph.MaintainRPQ(rpq), `pair -9223372036854775808 -9223372036854775808
pair -9223372036854775808 0
pair -1 -1
pair -1 99
pair 1 -10
pair 1 1
pair 9223372036854775807 0
pair 9223372036854775807 9223372036854775807
`},
		{incgraph.MaintainISO(incgraph.NewISO(g.Clone(), pat)), `match -1 99
match -9223372036854775808 0
match 1 -10
match 9223372036854775807 0
`},
		{incgraph.MaintainSCC(incgraph.NewSCC(g.Clone())), `comp -9223372036854775808 0 9223372036854775807
comp -10 1
comp -1 99
`},
	} {
		if got := string(answerBytes(t, tc.m)); got != tc.want {
			t.Errorf("%s answer:\n%s\nwant:\n%s", tc.m.Class(), got, tc.want)
		}
	}
}
