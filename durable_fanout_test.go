package incgraph_test

// Tests of the concurrent engine fan-out of Durable.ApplyLogged: the
// attached engines apply every batch at once, each on the graph it owns,
// all reading one shared batch. The fan-out must be invisible — the same
// summaries, in attach order, and the same answer bytes as applying the
// engines one after another — and it leans on two contracts pinned here:
// no two attached engines share a graph, and no engine's Apply mutates
// the batch it is given.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"incgraph"
)

// TestConcurrentEngineFanOut drives one update stream through a Durable
// with all four engines attached and, beside it, through a serial loop
// over freshly built engines of the same queries. After every batch the
// Durable's summaries must equal the serial loop's, slot for slot, and
// every engine's answer bytes must be identical. One batch in the middle
// is rejected by validation and must change nothing. Run under -race with
// GOMAXPROCS > 1 so the engines really interleave.
func TestConcurrentEngineFanOut(t *testing.T) {
	base, batches := diffWorkload(t, 5151)
	base.SetShards(4)
	base.SetParallelism(2)
	q := mkDurableQueries(t, base, 31)

	ref := mkEngines(t, base, q)
	d, err := incgraph.CreateDurable(t.TempDir(), base.Clone(), incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Attach(mkEngines(t, d.Graph(), q)...); err != nil {
		t.Fatal(err)
	}

	for i, b := range batches {
		if i == len(batches)/2 {
			// Re-committing the previous batch is invalid (its inserts
			// exist, its deletes are gone): validation refuses it before
			// the WAL, and no engine sees it.
			if _, err := d.Commit(batches[i-1], incgraph.ApplyOptions{}); err == nil {
				t.Fatalf("batch %d: re-commit of batch %d accepted", i, i-1)
			}
			compareAnswers(t, fmt.Sprintf("after rejected batch %d", i), answers(t, ref), answers(t, d.Engines()))
		}
		got, err := d.Commit(b, incgraph.ApplyOptions{})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		want := make([]incgraph.DeltaSummary, len(ref))
		for j, m := range ref {
			if want[j], err = m.Apply(b); err != nil {
				t.Fatalf("batch %d: serial %s: %v", i, m.Class(), err)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("batch %d: summaries %v, serial reference %v", i, got, want)
		}
		compareAnswers(t, fmt.Sprintf("batch %d", i), answers(t, ref), answers(t, d.Engines()))
	}
	if !d.Graph().Equal(ref[0].Graph()) {
		t.Fatal("base graph diverged from the serial reference")
	}
}

// failingEngine is an attached engine whose Apply always fails.
type failingEngine struct {
	incgraph.Maintained
	name string
}

func (f failingEngine) Apply(incgraph.Batch) (incgraph.DeltaSummary, error) {
	return incgraph.DeltaSummary{}, errors.New(f.name + " failed")
}

// TestFanOutReportsFirstErrorInAttachOrder: when several engines fail on
// one batch, the error returned is the first failing engine's in attach
// order, whatever order the goroutines finished in.
func TestFanOutReportsFirstErrorInAttachOrder(t *testing.T) {
	base, batches := diffWorkload(t, 77)
	q := mkDurableQueries(t, base, 3)
	d, err := incgraph.CreateDurable(t.TempDir(), base.Clone(), incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	es := mkEngines(t, d.Graph(), q)
	es[1] = failingEngine{es[1], "second"}
	es[3] = failingEngine{es[3], "fourth"}
	if err := d.Attach(es...); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		_, err := d.ApplyLogged(batches[0])
		if err == nil || !strings.Contains(err.Error(), "second failed") {
			t.Fatalf("trial %d: error %v, want the second engine's", trial, err)
		}
		if err := d.Graph().ApplyBatch(batches[0].Inverse()); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 2} {
			if _, err := es[i].Apply(batches[0].Inverse()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAttachRejectsSharedEngineGraph: two engines on one graph would both
// apply every batch to it — concurrently, under the fan-out — so Attach
// refuses the second, within one call or across calls, and attaches
// nothing from a refused call.
func TestAttachRejectsSharedEngineGraph(t *testing.T) {
	base, _ := diffWorkload(t, 12)
	d, err := incgraph.CreateDurable(t.TempDir(), base.Clone(), incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	shared := d.Graph().Clone()
	scc := incgraph.MaintainSCC(incgraph.NewSCC(shared))
	scc2 := incgraph.MaintainSCC(incgraph.NewSCC(shared))
	own := incgraph.MaintainSCC(incgraph.NewSCC(d.Graph().Clone()))

	if err := d.Attach(own, scc, scc2); err == nil || !strings.Contains(err.Error(), "shares its graph") {
		t.Fatalf("Attach of two engines on one graph: err = %v", err)
	}
	if n := len(d.Engines()); n != 0 {
		t.Fatalf("refused Attach left %d engines attached", n)
	}
	if err := d.Attach(own, scc); err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(scc2); err == nil || !strings.Contains(err.Error(), "shares its graph") {
		t.Fatalf("Attach of an engine on an attached engine's graph: err = %v", err)
	}
	if n := len(d.Engines()); n != 2 {
		t.Fatalf("engines attached = %d, want 2", n)
	}
}

// TestApplyLeavesBatchUntouched: every class's Apply must leave its input
// batch exactly as it found it — elements and the spare capacity past its
// length — since the fan-out hands one batch to every engine at once and
// Normalize may return that batch itself. The stream mixes batches that
// normalize without a copy, a batch past Normalize's pairwise-scan size,
// and a batch whose updates cancel.
func TestApplyLeavesBatchUntouched(t *testing.T) {
	base, batches := diffWorkload(t, 404)
	q := mkDurableQueries(t, base, 9)
	var cancel incgraph.Batch
	for v := incgraph.NodeID(0); cancel == nil; v++ {
		if !base.HasEdge(v, v+1) && base.HasNode(v) && base.HasNode(v+1) {
			cancel = incgraph.Batch{incgraph.Ins(v, v+1), incgraph.Del(v, v+1)}
		}
	}
	stream := []incgraph.Batch{
		batches[0],
		cancel,
		slices.Concat(batches[1], batches[2]),
		batches[3][:16],
		batches[3][16:],
	}
	sentinel := incgraph.InsNew(-7, -8, "sentinel", "sentinel")
	for _, m := range mkEngines(t, base, q) {
		for i, b := range stream {
			// Give the batch spare capacity filled with a sentinel, so an
			// append into the caller's array would show too.
			arg := append(slices.Clone(b), sentinel, sentinel, sentinel)[:len(b)]
			before := slices.Clone(arg[:cap(arg)])
			if _, err := m.Apply(arg); err != nil {
				t.Fatalf("%s: batch %d: %v", m.Class(), i, err)
			}
			if !slices.Equal(arg[:cap(arg)], before) {
				t.Fatalf("%s: batch %d: Apply mutated its input batch", m.Class(), i)
			}
		}
	}
}
