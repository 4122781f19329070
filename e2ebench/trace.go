package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"incgraph"
	"incgraph/internal/cost"
)

// answerSample makes the traced pass time WriteAnswer on every engine
// after every answerSample-th commit (outside the commit spans).
const answerSample = 64

// engineStats is what the traced wrapper of one engine records.
type engineStats struct {
	class          string
	build          time.Duration
	repair, flush  []time.Duration
	answer         []time.Duration
	work           int // meter units over the replay
	changes, delta int // Σ|ΔG| and Σ|ΔO| over the replay
	rebuilds       int // applies the cost router sent to a batch rebuild
	applies        int
}

// tracedEngine records spans around one attached engine: its Apply, then
// its own graph's PrepareConcurrentReads, so each flush is attributed to
// the engine whose graph copy it flushes. Durable.ApplyLogged's own flush
// call that follows finds nothing left to do.
type tracedEngine struct {
	incgraph.Maintained
	meter *incgraph.Meter
	est   func() cost.Estimate
	st    *engineStats
	last  time.Duration // repair+flush of the current commit
}

func (t *tracedEngine) Apply(b incgraph.Batch) (incgraph.DeltaSummary, error) {
	t0 := time.Now()
	sum, err := t.Maintained.Apply(b)
	t1 := time.Now()
	t.Graph().PrepareConcurrentReads()
	t2 := time.Now()
	if err != nil {
		return sum, err
	}
	t.st.repair = append(t.st.repair, t1.Sub(t0))
	t.st.flush = append(t.st.flush, t2.Sub(t1))
	t.last = t2.Sub(t0)
	t.st.applies++
	t.st.changes += len(b)
	t.st.delta += sum.Added + sum.Removed + sum.Updated
	if t.est != nil && t.est().PreferBatch() {
		t.st.rebuilds++
	}
	return sum, nil
}

// countingConn counts the bytes a cluster link moves in both directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// localCluster is the in-process stand-in for -cluster-spawn 2: two shard
// workers on loopback listeners, with every link's bytes counted.
type localCluster struct {
	cl    *incgraph.Cluster
	lns   []net.Listener
	wg    sync.WaitGroup
	bytes atomic.Int64
}

func startLocalCluster(g *incgraph.Graph, workers int) (*localCluster, error) {
	lc := &localCluster{}
	var links []incgraph.ClusterLink
	for i := 0; i < workers; i++ {
		ln, err := incgraph.ListenCluster("127.0.0.1:0")
		if err != nil {
			lc.close()
			return nil, err
		}
		lc.lns = append(lc.lns, ln)
		wk := incgraph.NewClusterWorker()
		lc.wg.Add(1)
		go func() {
			defer lc.wg.Done()
			wk.Serve(ln)
		}()
		link, err := incgraph.DialClusterWorker(ln.Addr().String())
		if err != nil {
			lc.close()
			return nil, err
		}
		link.Conn = countingConn{link.Conn, &lc.bytes}
		if redial := link.Redial; redial != nil {
			link.Redial = func() (net.Conn, error) {
				c, err := redial()
				if err != nil {
					return nil, err
				}
				return countingConn{c, &lc.bytes}, nil
			}
		}
		links = append(links, link)
	}
	cl, err := incgraph.NewCluster(g, links, incgraph.WithClusterTerm(1), incgraph.WithReplication(incgraph.ReplQuorum))
	if err != nil {
		lc.close()
		return nil, err
	}
	lc.cl = cl
	return lc, nil
}

func (lc *localCluster) close() {
	if lc.cl != nil {
		lc.cl.Close()
	}
	for _, ln := range lc.lns {
		ln.Close()
	}
	lc.wg.Wait()
}

// commitSpans is one traced Durable.Commit. In cluster mode what follows
// the Exclusive hook is log shipping to the workers and the quorum ack.
type commitSpans struct {
	total     time.Duration // Commit entry to return
	validate  time.Duration // Commit entry to Log hook entry
	wal       time.Duration // the Log hook (LogPlanned)
	phase1    time.Duration // Commit entry to Exclusive hook entry
	exclusive time.Duration // the Exclusive hook
	engines   time.Duration // Σ engine repair+flush inside Exclusive
}

// tracePass is the traced in-process replay of one run's inputs.
type tracePass struct {
	cluster      bool
	commits      []commitSpans
	updates      int
	engines      []*engineStats
	walBytes     int64
	clusterBytes int64
	heapMB       float64
	openS        float64
	replayS      float64
	plain        []time.Duration // Commit times of the same batches, untraced
	attempted    int64
	failed       int64
}

// tracedPass replays the inputs in-process with the daemon's
// configuration (same shards, default parallelism, SyncAlways, and in
// cluster mode two loopback workers with quorum replication): first
// traced for the run length, then the same batches untraced to measure
// the tracing overhead, then a reopen and WAL replay of the traced store.
func tracedPass(o options, w workload, in *inputs, dir string, log io.Writer) (*tracePass, error) {
	p := &tracePass{cluster: w.cluster}
	store := filepath.Join(dir, "traced")
	want, heapWith, err := p.replay(o, w, in, store, log)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = (float64(heapWith) - float64(ms.HeapInuse)) / (1 << 20)

	t := time.Now()
	d, err := incgraph.OpenDurable(store, incgraph.DurableOptions{Sync: incgraph.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	p.openS = time.Since(t).Seconds()
	d.Graph().SetParallelism(0)
	engines, err := in.buildEngines(d.Graph())
	if err != nil {
		return nil, err
	}
	if err := d.Attach(engines...); err != nil {
		return nil, err
	}
	t = time.Now()
	if err := d.Recover(); err != nil {
		return nil, err
	}
	p.replayS = time.Since(t).Seconds()
	got, err := answersOf(engines)
	if err != nil {
		return nil, err
	}
	bad := checkAnswers(got, want)
	p.attempted += int64(len(classes))
	p.failed += int64(len(bad))
	for _, b := range bad {
		fmt.Fprintf(log, "# ANSWER MISMATCH traced replay after reopen: %s\n", b)
	}

	if p.plain, err = plainReplay(w, in, filepath.Join(dir, "plain"), len(p.commits)); err != nil {
		return nil, err
	}
	return p, nil
}

// replay runs the traced commits and returns the final answers and the
// heap in use (after a GC) while the durable and its engines are live.
func (p *tracePass) replay(o options, w workload, in *inputs, store string, log io.Writer) (map[string][]byte, uint64, error) {
	d, err := incgraph.CreateDurable(store, in.g0.Clone(), incgraph.DurableOptions{Sync: incgraph.SyncAlways})
	if err != nil {
		return nil, 0, err
	}
	defer d.Close()
	d.Graph().SetParallelism(0)
	var traced []*tracedEngine
	for _, class := range classes {
		meter := &incgraph.Meter{}
		t := time.Now()
		m, est, err := in.buildEngine(class, d.Graph().Clone(), meter)
		if err != nil {
			return nil, 0, err
		}
		st := &engineStats{class: class, build: time.Since(t)}
		meter.Reset()
		p.engines = append(p.engines, st)
		te := &tracedEngine{Maintained: m, meter: meter, est: est, st: st}
		traced = append(traced, te)
		if err := d.Attach(te); err != nil {
			return nil, 0, err
		}
	}
	var lc *localCluster
	if w.cluster {
		if lc, err = startLocalCluster(d.Graph(), 2); err != nil {
			return nil, 0, err
		}
		defer lc.close()
		lc.bytes.Store(0)
	}

	var cur commitSpans
	var t0 time.Time
	opts := incgraph.ApplyOptions{
		Log: func(b incgraph.Batch, gen uint64) error {
			t := time.Now()
			cur.validate = t.Sub(t0)
			err := d.LogPlanned(b, gen)
			cur.wal = time.Since(t)
			return err
		},
		Exclusive: func(apply func() error) error {
			t := time.Now()
			cur.phase1 = t.Sub(t0)
			err := apply()
			cur.exclusive = time.Since(t)
			return err
		},
	}
	if lc != nil {
		opts.Via = lc.cl
	}
	var buf bytes.Buffer
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i, b := range in.batches {
		if time.Since(start) >= window {
			break
		}
		cur = commitSpans{}
		p.attempted++
		t0 = time.Now()
		_, err := d.Commit(b, opts)
		cur.total = time.Since(t0)
		if err != nil {
			p.failed++
			fmt.Fprintf(log, "# traced commit %d failed: %v\n", i, err)
			break
		}
		for _, te := range traced {
			cur.engines += te.last
		}
		p.commits = append(p.commits, cur)
		p.updates += len(b)
		if (i+1)%answerSample == 0 {
			for _, te := range traced {
				buf.Reset()
				t := time.Now()
				if err := te.WriteAnswer(&buf); err != nil {
					return nil, 0, err
				}
				te.st.answer = append(te.st.answer, time.Since(t))
			}
		}
	}
	for _, te := range traced {
		te.st.work = te.meter.Total()
	}
	if lc != nil {
		p.clusterBytes = lc.bytes.Load()
	}
	p.walBytes = d.WALBytes()
	want, err := answersOf(d.Engines())
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return want, ms.HeapInuse, nil
}

// plainReplay commits the first n batches through an untraced durable
// (no hooks, wrappers or meters) and returns each Commit's time.
func plainReplay(w workload, in *inputs, store string, n int) ([]time.Duration, error) {
	d, err := incgraph.CreateDurable(store, in.g0.Clone(), incgraph.DurableOptions{Sync: incgraph.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	d.Graph().SetParallelism(0)
	engines, err := in.buildEngines(d.Graph())
	if err != nil {
		return nil, err
	}
	if err := d.Attach(engines...); err != nil {
		return nil, err
	}
	var opts incgraph.ApplyOptions
	if w.cluster {
		lc, err := startLocalCluster(d.Graph(), 2)
		if err != nil {
			return nil, err
		}
		defer lc.close()
		opts.Via = lc.cl
	}
	times := make([]time.Duration, 0, n)
	for i, b := range in.batches[:n] {
		t := time.Now()
		if _, err := d.Commit(b, opts); err != nil {
			return nil, fmt.Errorf("untraced replay commit %d: %w", i, err)
		}
		times = append(times, time.Since(t))
	}
	return times, nil
}

// report replaces the metrics with the per-layer ones. The layer spans
// are means over the median band of commits (those whose total lies
// between the 40th and 60th percentile), so that they add up, with the
// residual, to durable.commit_p50_us; medians taken layer by layer would
// not, since each layer's slow commits are different ones.
func (p *tracePass) report(res *result, dp *daemonPass, log io.Writer) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	m := res.Metrics
	us := func(d float64) float64 { return d / float64(time.Microsecond) }
	totals := make([]time.Duration, len(p.commits))
	for i, c := range p.commits {
		totals[i] = c.total
	}
	commitP50 := us(median(totals))
	lo, hi := time.Duration(quantile(totals, 0.4)), time.Duration(quantile(totals, 0.6))
	var band []int
	for i, c := range p.commits {
		if c.total >= lo && c.total <= hi {
			band = append(band, i)
		}
	}
	bandMean := func(f func(i int) time.Duration) float64 {
		var sum time.Duration
		for _, i := range band {
			sum += f(i)
		}
		return us(float64(sum) / float64(max(1, len(band))))
	}
	validate := bandMean(func(i int) time.Duration { return p.commits[i].validate })
	wal := bandMean(func(i int) time.Duration { return p.commits[i].wal })
	phase1 := bandMean(func(i int) time.Duration { return p.commits[i].phase1 })
	graphApply := bandMean(func(i int) time.Duration { return p.commits[i].exclusive - p.commits[i].engines })
	replicate := bandMean(func(i int) time.Duration {
		c := p.commits[i]
		return c.total - c.phase1 - c.exclusive
	})
	m["durable.commit_p50_us"] = metric{commitP50, "us"}
	m["durable.commit_p99_us"] = metric{us(quantile(totals, 0.99)), "us"}
	m["durable.validate_us"] = metric{validate, "us"}
	m["store.wal_append_us"] = metric{wal, "us"}
	m["graph.apply_us"] = metric{graphApply, "us"}
	// Before the Exclusive hook, the single-process path validates and
	// appends in sequence; the cluster path overlaps both with phase 1,
	// and replicates the batch's log record after it.
	attributed := graphApply
	breakdown := fmt.Sprintf("# traced commit p50 %.1fus = ", commitP50)
	if p.cluster {
		m["cluster.phase1_us"] = metric{phase1, "us"}
		m["cluster.replicate_us"] = metric{replicate, "us"}
		attributed += phase1 + replicate
		breakdown += fmt.Sprintf("phase1 %.1f + replicate %.1f", phase1, replicate)
	} else {
		m["cluster.phase1_us"] = metric{0, "us"}
		m["cluster.replicate_us"] = metric{0, "us"}
		attributed += validate + wal
		breakdown += fmt.Sprintf("validate %.1f + wal %.1f", validate, wal)
	}
	breakdown += fmt.Sprintf(" + graph.apply %.1f", graphApply)
	for _, st := range p.engines {
		repair := bandMean(func(i int) time.Duration { return st.repair[i] })
		flush := bandMean(func(i int) time.Duration { return st.flush[i] })
		attributed += repair + flush
		breakdown += fmt.Sprintf(" + %s %.1f+%.1f", st.class, repair, flush)
		m[st.class+".repair_us"] = metric{repair, "us"}
		m[st.class+".flush_us"] = metric{flush, "us"}
		m[st.class+".work_per_change"] = metric{ratio(st.work, st.changes+st.delta), "units"}
		m[st.class+".delta_per_update"] = metric{ratio(st.delta, st.changes), "ratio"}
		m[st.class+".answer_us"] = metric{us(median(st.answer)), "us"}
		m[st.class+".build_s"] = metric{st.build.Seconds(), "s"}
		if st.class == "kws" || st.class == "iso" {
			m[st.class+".rebuild_frac"] = metric{ratio(st.rebuilds, st.applies), "ratio"}
		}
	}
	m["durable.residual_us"] = metric{commitP50 - attributed, "us"}
	fmt.Fprintf(log, "%s + residual %.1f (%d commits, %d in the median band)\n",
		breakdown, commitP50-attributed, len(p.commits), len(band))

	m["durable.replay_s"] = metric{p.replayS, "s"}
	m["store.open_s"] = metric{p.openS, "s"}
	m["store.wal_bytes_per_update"] = metric{ratio(int(p.walBytes), p.updates), "B"}
	m["durable.heap_mb"] = metric{p.heapMB, "MB"}
	m["cluster.bytes_per_update"] = metric{ratio(int(p.clusterBytes), p.updates), "B"}
	m["bench.trace_overhead_frac"] = metric{commitP50/us(median(p.plain)) - 1, "ratio"}
	m["incgraphd.overhead_us"] = metric{us(median(dp.commits)) - commitP50, "us"}
	dp.reportPerLayer(m)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
