package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the harness must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildDaemon builds incgraphd from the repository's sources.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "incgraphd")
	out, err := exec.Command("go", "build", "-o", bin, "incgraph/cmd/incgraphd").CombinedOutput()
	if err != nil {
		t.Fatalf("building incgraphd: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload at a tiny scale in both modes and checks
// that the run is correct and prints exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts incgraphd many times")
	}
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json names workloads %v, the harness has %v", names, have)
	}
	bin := buildDaemon(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := make(map[string]string)
			for _, m := range s.EndToEnd {
				if !trace {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range s.PerLayer {
				if trace {
					want[m.Name] = m.Unit
				}
			}
			var log bytes.Buffer
			res, err := run(options{workload: w.name, seed: 3, seconds: 0.3, trace: trace,
				daemon: bin, workdir: t.TempDir(), scale: 0.05}, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			var extra []string
			for name, m := range res.Metrics {
				unit, ok := want[name]
				switch {
				case !ok:
					extra = append(extra, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", w.name, trace, name, m.Unit, unit)
				}
				delete(want, name)
			}
			sort.Strings(extra)
			if len(extra) > 0 || len(want) > 0 {
				t.Errorf("%s trace=%v: metrics not in BENCHMARK.json %v; missing %v", w.name, trace, extra, want)
			}
			if !strings.Contains(log.String(), "# inputs: workload="+w.name) {
				t.Errorf("%s trace=%v: no inputs line in\n%s", w.name, trace, log.String())
			}
		}
	}
}

// TestCheckAnswersRejectsCorruption feeds the correctness gate a
// corrupted answer, a truncated one and a missing one.
func TestCheckAnswersRejectsCorruption(t *testing.T) {
	in, err := makeInputs(0.05, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want, err := in.expectedAnswers(10)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() map[string][]byte {
		out := make(map[string][]byte)
		for k, v := range want {
			out[k] = append([]byte(nil), v...)
		}
		return out
	}
	if bad := checkAnswers(clone(), want); len(bad) != 0 {
		t.Fatalf("identical answers rejected: %v", bad)
	}
	for _, class := range classes {
		got := clone()
		got[class][len(got[class])/2] ^= 1
		if bad := checkAnswers(got, want); len(bad) != 1 || !strings.HasPrefix(bad[0], class+":") {
			t.Errorf("corrupted %s answer: check reported %v", class, bad)
		}
		got = clone()
		got[class] = got[class][:len(got[class])-1]
		if bad := checkAnswers(got, want); len(bad) != 1 {
			t.Errorf("truncated %s answer: check reported %v", class, bad)
		}
		got = clone()
		delete(got, class)
		if bad := checkAnswers(got, want); len(bad) != 1 {
			t.Errorf("missing %s answer: check reported %v", class, bad)
		}
	}
	// The batches themselves must change the answers, or the check
	// would pass a daemon that ignored every commit.
	before, err := in.expectedAnswers(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkAnswers(before, want)) == 0 {
		t.Fatal("ten batches left every answer unchanged")
	}
}
