// Command e2ebench is the repository's end-to-end benchmark. It generates
// a workload's inputs from a seed, starts incgraphd as a child process on
// loopback, drives it closed-loop for a fixed time, checks every served
// answer against a from-scratch build, and prints the end-to-end metrics.
// With -trace 1 it also replays the same inputs in-process through the
// library with spans around each layer and prints the per-layer metrics.
//
// Run it through run.sh, which builds it and the daemon first:
//
//	bash e2ebench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"incgraph"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string  // incgraphd binary
	workdir  string  // scratch space for stores and logs
	scale    float64 // dataset scale multiplier: 1, or small in tests
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{scale: 1}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: ingest|cluster")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured write window")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "incgraphd binary")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for run scratch files")
	flag.Parse()
	o.trace = trace == 1

	// An interrupted run still stops every daemon it started.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()

	res, err := run(o, os.Stdout)
	if err != nil {
		killAll()
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options, log io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.daemon == "" || o.seconds <= 0 {
		return nil, fmt.Errorf("need -daemon and a positive -seconds")
	}
	if err := becomeSubreaper(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t := time.Now()
	in, err := makeInputs(o.scale, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(t)
	flags, err := writeDaemonInputs(in, w, dir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(log, in.describe(w, o.seed, flags, genTime))

	res := &result{Metrics: make(map[string]metric)}
	dp, err := runDaemonPass(o, in, dir, flags, log)
	if err != nil {
		return nil, err
	}
	dp.report(res, log)
	if o.trace {
		tp, err := tracedPass(o, w, in, dir, log)
		if err != nil {
			return nil, err
		}
		res.Metrics = make(map[string]metric)
		tp.report(res, dp, log)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// writeDaemonInputs writes the seed graph and the ISO pattern where the
// daemon reads them and returns its flags (without -store and -addr).
func writeDaemonInputs(in *inputs, w workload, dir string) ([]string, error) {
	snap := filepath.Join(dir, "graph.snap")
	if err := incgraph.WriteSnapshotFile(snap, in.g0); err != nil {
		return nil, err
	}
	pattern := filepath.Join(dir, "pattern.txt")
	f, err := os.Create(pattern)
	if err != nil {
		return nil, err
	}
	if err := incgraph.WriteGraph(f, in.pattern.Graph()); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	flags := []string{"-graph", snap,
		"-kws", strings.Join(in.kws.Keywords, ","), "-bound", fmt.Sprint(in.kws.Bound),
		"-rpq", in.rpq.String(), "-iso", pattern, "-scc", "-fsync", "always"}
	if w.cluster {
		flags = append(flags, "-cluster-spawn", "2", "-repl", "quorum")
	}
	return flags, nil
}
