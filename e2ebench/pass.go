package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// setupRuns is how many times each run starts a fresh daemon; setup_s is
// the median. The last start serves the rest of the run.
const setupRuns = 3

// The read probe runs on the seed state, before any commit: answer
// rounds for probeShare of the window, each followed by queriesPerRound
// "query" reads cycling kws|rpq|iso|scc. A round is one "answer" dump of
// each class, back to back, timed from the first request to the last
// ".". A round, not a single dump, is the unit: the classes' dumps differ
// in size by orders of magnitude, and a median over a mix of them would
// fall between classes. The probe comes first because the update stream
// shrinks the graph (its deletions succeed more often than its
// insertions), so after the window the answers' size would depend on the
// window's throughput.
const (
	probeShare      = 0.25
	queriesPerRound = 80
)

// Recovery replays a log of recoveryBatches batches, committed right
// after the probe, so that every run recovers the same amount of work;
// recover_s is the median of recoveries SIGKILL-and-restart cycles.
// Restarting does not change the store, so every cycle replays the same
// log. The write window then runs on the last restarted daemon.
const (
	recoveryBatches = 512
	recoveries      = 3
)

// daemonPass is the untraced end-to-end measurement of one run.
type daemonPass struct {
	setups           []time.Duration
	commits          []time.Duration
	queries, answers []time.Duration
	committed        int // batches acknowledged, in stream order
	updates          int // updates acknowledged in the window
	window           time.Duration
	recover          []time.Duration
	restarts         []time.Duration // the part of recover from exec to health
	rssMB            float64
	shed             map[string]float64 // stat counter deltas over the probe and the window
	attempted        int64
	failed           int64
}

var shedCounters = []string{"commit_shed", "read_shed"}

// runDaemonPass starts the daemon setupRuns times, probes reads on the
// last one, commits the recovery log, measures and checks the recovery,
// runs the write window on the recovered daemon and checks its answers.
func runDaemonPass(o options, in *inputs, dir string, flags []string, log io.Writer) (*daemonPass, error) {
	p := &daemonPass{shed: make(map[string]float64)}
	logPath := filepath.Join(dir, "incgraphd.log")
	var d *daemon
	var args []string
	for i := 0; i < setupRuns; i++ {
		args = append([]string{"-store", filepath.Join(dir, fmt.Sprintf("store%d", i))}, flags...)
		var took time.Duration
		var err error
		if d, took, err = startDaemon(o.daemon, args, logPath); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, took)
		if i < setupRuns-1 {
			d.kill()
		}
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if err := p.probeAndLog(d, time.Duration(probeShare*float64(window)), in, log); err != nil {
		d.kill()
		return nil, err
	}

	// Recovery: SIGKILL after the last acknowledged commit, restart on the
	// same store, and time until the daemon answers health again.
	var got []map[string][]byte
	for i := 0; i < recoveries; i++ {
		t := time.Now()
		d.kill()
		var restart time.Duration
		var err error
		if d, restart, err = startDaemon(o.daemon, args, logPath); err != nil {
			return nil, err
		}
		p.recover = append(p.recover, time.Since(t))
		p.restarts = append(p.restarts, restart)
		a, err := fetchAnswers(d.addr)
		if err != nil {
			d.kill()
			return nil, err
		}
		got = append(got, a)
	}
	if err := p.check(in, got, "after recovery", log); err != nil {
		d.kill()
		return nil, err
	}

	final, err := p.writeWindow(d, window, in, log)
	if err == nil {
		p.rssMB = d.peakRSSMB()
	}
	d.kill()
	if err != nil {
		return nil, err
	}
	if err := p.check(in, []map[string][]byte{final}, "at run end", log); err != nil {
		return nil, err
	}
	return p, nil
}

// check compares answers fetched after the first p.committed batches with
// a from-scratch build, counting each differing class as a failed op.
func (p *daemonPass) check(in *inputs, got []map[string][]byte, when string, log io.Writer) error {
	want, err := in.expectedAnswers(p.committed)
	if err != nil {
		return err
	}
	for _, g := range got {
		bad := checkAnswers(g, want)
		p.attempted += int64(len(classes))
		p.failed += int64(len(bad))
		for _, b := range bad {
			fmt.Fprintf(log, "# ANSWER MISMATCH %s: %s\n", when, b)
		}
	}
	return nil
}

// probeAndLog runs the read probe on the seed state, then commits the
// recovery log.
func (p *daemonPass) probeAndLog(d *daemon, probe time.Duration, in *inputs, log io.Writer) error {
	c, err := dial(d.addr)
	if err != nil {
		return err
	}
	defer c.close()
	var buf []byte
probe:
	for t := time.Now(); len(p.answers) == 0 || time.Since(t) < probe; {
		p.attempted++
		r := time.Now()
		for _, class := range classes {
			if buf, err = c.answer(class, buf); err != nil {
				p.failed++
				fmt.Fprintf(log, "# answer %s failed: %v\n", class, err)
				break probe
			}
		}
		p.answers = append(p.answers, time.Since(r))
		for op := 0; op < queriesPerRound; op++ {
			p.attempted++
			q := time.Now()
			if err := c.query(classes[op%len(classes)]); err != nil {
				p.failed++
				fmt.Fprintf(log, "# query failed: %v\n", err)
				break probe
			}
			p.queries = append(p.queries, time.Since(q))
		}
	}
	// A fresh daemon's counters start at zero.
	shed, err := c.statCounters(shedCounters...)
	if err != nil {
		return err
	}
	for k, v := range shed {
		p.shed[k] += v
	}
	for p.committed < recoveryBatches && p.commit(c, in, log) {
	}
	return nil
}

// writeWindow commits the stream's next batches for the window and
// returns the answers served at its end.
func (p *daemonPass) writeWindow(d *daemon, window time.Duration, in *inputs, log io.Writer) (map[string][]byte, error) {
	c, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	before, err := c.statCounters(shedCounters...)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	start := time.Now()
	for p.committed < len(in.wire) && time.Since(start) < window {
		t := time.Now()
		if !p.commit(c, in, log) {
			break
		}
		p.commits = append(p.commits, time.Since(t))
		p.updates += len(in.batches[p.committed-1])
	}
	p.window = time.Since(start)
	after, err := c.statCounters(shedCounters...)
	if err != nil {
		return nil, err
	}
	for _, k := range shedCounters {
		p.shed[k] += after[k] - before[k]
	}
	return fetchRound(c)
}

// commit sends the next batch of the stream, reporting whether it was
// acknowledged.
func (p *daemonPass) commit(c *conn, in *inputs, log io.Writer) bool {
	i := p.committed
	p.attempted++
	if err := c.commit(in.wire[i], len(in.batches[i])); err != nil {
		p.failed++
		fmt.Fprintf(log, "# commit %d failed: %v\n", i, err)
		return false
	}
	p.committed++
	return true
}

// fetchRound fetches one answer dump of every class.
func fetchRound(c *conn) (map[string][]byte, error) {
	out := make(map[string][]byte, len(classes))
	for _, class := range classes {
		a, err := c.answer(class, nil)
		if err != nil {
			return nil, err
		}
		out[class] = a
	}
	return out, nil
}

func fetchAnswers(addr string) (map[string][]byte, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	return fetchRound(c)
}

// report adds the end-to-end metrics and prints the sample counts.
func (p *daemonPass) report(res *result, log io.Writer) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	ms := func(d float64) float64 { return d / float64(time.Millisecond) }
	m := res.Metrics
	m["setup_s"] = metric{median(p.setups) / float64(time.Second), "s"}
	m["updates_per_s"] = metric{float64(p.updates) / p.window.Seconds(), "1/s"}
	m["commit_p50_ms"] = metric{ms(median(p.commits)), "ms"}
	m["answer_p50_ms"] = metric{ms(median(p.answers)), "ms"}
	m["recover_s"] = metric{median(p.recover) / float64(time.Second), "s"}
	m["rss_mb"] = metric{p.rssMB, "MB"}
	fmt.Fprintf(log, "# daemon: window=%.2fs commits=%d queries=%d answer_rounds=%d recovery_log=%d batches setups=%v recoveries=%v (restarts %v) commit_shed=%g read_shed=%g failed=%d/%d\n",
		p.window.Seconds(), len(p.commits), len(p.queries), len(p.answers), recoveryBatches, p.setups,
		p.recover, p.restarts, p.shed["commit_shed"], p.shed["read_shed"], p.failed, p.attempted)
	fmt.Fprintf(log, "# daemon tails: commit_p99=%.3fms query_p50=%.4fms query_p99=%.4fms answer_p99=%.3fms\n",
		ms(quantile(p.commits, 0.99)), ms(median(p.queries)), ms(quantile(p.queries, 0.99)), ms(quantile(p.answers, 0.99)))
}

// reportPerLayer adds the daemon-side figures the per-layer metrics
// include: the shed counters and the tails that run to run spread too
// widely to carry a bound (see README.md).
func (p *daemonPass) reportPerLayer(m map[string]metric) {
	ms := func(d float64) float64 { return d / float64(time.Millisecond) }
	m["incgraphd.commit_p99_ms"] = metric{ms(quantile(p.commits, 0.99)), "ms"}
	m["incgraphd.query_p50_ms"] = metric{ms(median(p.queries)), "ms"}
	m["incgraphd.query_p99_ms"] = metric{ms(quantile(p.queries, 0.99)), "ms"}
	m["incgraphd.answer_p99_ms"] = metric{ms(quantile(p.answers, 0.99)), "ms"}
	m["incgraphd.commit_shed"] = metric{p.shed["commit_shed"], "count"}
	m["incgraphd.read_shed"] = metric{p.shed["read_shed"], "count"}
}

// quantile returns the nearest-rank q-quantile of ds in nanoseconds (0
// for no samples).
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(0, min(i, len(s)-1))])
}

func median(ds []time.Duration) float64 { return quantile(ds, 0.5) }
