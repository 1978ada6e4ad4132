package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

const (
	parentSHA = "1111111111111111111111111111111111111111"
	changeSHA = "2222222222222222222222222222222222222222"
)

// synthRun is one side of a pair as a test builds it, before it is printed
// in the driver's format.
type synthRun struct {
	commit string
	wls    map[string]*synthWorkload
}

type synthWorkload struct {
	digest            string
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

// baseValues are plausible end-to-end values, one per metric of
// BENCHMARK.json.
var baseValues = map[string]float64{"setup_s": 0.06, "ops_per_s": 150000, "alloc_bytes_per_op": 804, "allocs_per_op": 2.2}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		t.Fatalf("BENCHMARK.json read as %+v", sp)
	}
	return sp
}

// synth builds one run of every workload of sp; scale multiplies every
// metric, the host noise of that run.
func synth(sp spec, commit string, scale float64) *synthRun {
	r := &synthRun{commit: commit, wls: map[string]*synthWorkload{}}
	for i, wl := range sp.Workloads {
		w := &synthWorkload{correct: true, attempted: 1000, metrics: map[string]float64{}}
		if i < 2 { // the simulated-cluster workloads print a digest
			w.digest = fmt.Sprintf("%016x", 0xab0f8473ca82055+i)
		}
		for _, m := range sp.EndToEnd {
			w.metrics[m.Name] = baseValues[m.Name] * scale
		}
		r.wls[wl.Name] = w
	}
	return r
}

// print renders r as bench/run.sh prints it: the env: line, a header per
// workload, a metric line each, the result JSON last.
func (r *synthRun) print(sp spec, seed int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "env: commit=%s go=go1.24.0 cpu=%q nproc=2 GOMAXPROCS=2 storm_schedulers=2 seed=%d seconds=3 scale=full trace=0\n", r.commit, "Test CPU @ 2.10GHz", seed)
	results := map[string]any{}
	for _, wl := range sp.Workloads {
		w, ok := r.wls[wl.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "\n%s — op = a job; 5 reps, %d ops attempted, %d failed", wl.Name, w.attempted, w.failed)
		if w.digest != "" {
			fmt.Fprintf(&b, "; sim_digest %s", w.digest)
		}
		b.WriteString("\n")
		metrics := map[string]any{}
		for name, v := range w.metrics {
			fmt.Fprintf(&b, "  %-34s %14.6g x n=5 iqr=0.1 cov=1.00%%\n", name, v)
			metrics[name] = map[string]any{"value": v, "unit": "x"}
		}
		results[wl.Name] = map[string]any{"correct": w.correct, "attempted": w.attempted, "failed": w.failed, "metrics": metrics}
	}
	line, _ := json.Marshal(results)
	b.Write(line)
	b.WriteString("\n")
	return b.String()
}

// judgeCase builds ten A/A pairs whose change side reads up to ±4 % off the
// parent (within every bound), lets edit alter pair i, and judges them.
func judgeCase(t *testing.T, edit func(i int, parent, change *synthRun)) (string, []string) {
	t.Helper()
	sp := readSpec(t)
	var ps []pair
	for i := range pairs {
		parent, change := synth(sp, parentSHA, 1), synth(sp, changeSHA, 1+0.02*float64(i%5-2))
		if edit != nil {
			edit(i, parent, change)
		}
		var p pair
		var err error
		if p.parent, err = parseRun(parent.print(sp, i+1)); err != nil {
			t.Fatal(err)
		}
		if p.change, err = parseRun(change.print(sp, i+1)); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	var out bytes.Buffer
	fails := judge(&out, sp, parentSHA, changeSHA, ps)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var traj map[string]trajectoryRow
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &traj); err != nil {
		t.Fatalf("last line is not the trajectory JSON: %v\n%s", err, out.String())
	}
	return out.String(), fails
}

// wantFail checks that exactly one check failed and that it names every
// word of want.
func wantFail(t *testing.T, out string, fails []string, want ...string) {
	t.Helper()
	if len(fails) != 1 {
		t.Fatalf("want one failed check naming %q, got %d: %q\n%s", want, len(fails), fails, out)
	}
	for _, w := range want {
		if !strings.Contains(fails[0], w) {
			t.Fatalf("failed check %q does not name %q\n%s", fails[0], w, out)
		}
	}
}

func TestCompareAAPasses(t *testing.T) {
	out, fails := judgeCase(t, nil)
	if len(fails) != 0 || strings.Contains(out, "worse") || strings.Contains(out, "unresolved") {
		t.Fatalf("A/A failed: %q\n%s", fails, out)
	}
	// The change reads ±2 % or ±4 % off in eight pairs, so it wins four
	// of them and ties two.
	if got := strings.Count(out, ", 4/10, ok |"); got != 16 {
		t.Fatalf("%d cells read 4/10 better and ok, want 16\n%s", got, out)
	}
	if !strings.Contains(out, `"bind_storm/allocs_per_op":{"parent":2.2,"change":2.2,"unit":"count"}`) {
		t.Fatalf("trajectory line lacks bind_storm/allocs_per_op\n%s", out)
	}
}

// One pair reads the parent's value, so the median rule alone catches it.
func TestCompareExtraAllocationFails(t *testing.T) {
	out, fails := judgeCase(t, func(i int, _, change *synthRun) {
		if i != 3 {
			change.wls["bind_storm"].metrics["allocs_per_op"] = 2.2 * 1.45
		}
	})
	wantFail(t, out, fails, "bind_storm", "allocs_per_op", "worse", "+45.0 %")
}

func TestCompareHalvedThroughputFails(t *testing.T) {
	out, fails := judgeCase(t, func(i int, parent, change *synthRun) {
		change.wls["bind_storm"].metrics["ops_per_s"] = parent.wls["bind_storm"].metrics["ops_per_s"] * 0.5
	})
	wantFail(t, out, fails, "bind_storm", "ops_per_s", "worse", "-50.0 %")
}

// Every pair worse by more than the bound fails even when the pairs spread
// wider than the bound.
func TestCompareEveryPairWorseFails(t *testing.T) {
	out, fails := judgeCase(t, func(i int, parent, change *synthRun) {
		change.wls["metrics_rw"].metrics["ops_per_s"] = parent.wls["metrics_rw"].metrics["ops_per_s"] * []float64{0.2, 0.7}[i%2]
	})
	wantFail(t, out, fails, "metrics_rw", "ops_per_s", "worse")
}

// The median pair is worse by more than the bound, but the pairs spread
// wider than it and some read better.
func TestCompareWideSpreadIsUnresolved(t *testing.T) {
	out, fails := judgeCase(t, func(i int, parent, change *synthRun) {
		change.wls["borg_replay"].metrics["setup_s"] = parent.wls["borg_replay"].metrics["setup_s"] * []float64{0.95, 1.9}[i%2]
	})
	if len(fails) != 0 || strings.Count(out, "unresolved") != 1 {
		t.Fatalf("want one unresolved cell and no failure, got %q\n%s", fails, out)
	}
}

// A lower-better metric halving and a higher-better one doubling are wins
// in every pair; the reverse moves fail.
func TestCompareDirections(t *testing.T) {
	out, fails := judgeCase(t, func(i int, parent, change *synthRun) {
		m := change.wls["cluster_saturated"].metrics
		m["alloc_bytes_per_op"] /= 2
		m["ops_per_s"] *= 2
	})
	if len(fails) != 0 || strings.Count(out, "10/10, ok") != 2 {
		t.Fatalf("want two cells better in 10/10 pairs and no failure, got %q\n%s", fails, out)
	}
	out, fails = judgeCase(t, func(i int, parent, change *synthRun) {
		change.wls["cluster_saturated"].metrics["alloc_bytes_per_op"] *= 2
	})
	wantFail(t, out, fails, "cluster_saturated", "alloc_bytes_per_op", "worse")
	out, fails = judgeCase(t, func(i int, parent, change *synthRun) {
		change.wls["cluster_saturated"].metrics["setup_s"] *= 2
	})
	wantFail(t, out, fails, "cluster_saturated", "setup_s", "worse")
}

func TestCompareChecksFail(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(i int, parent, change *synthRun)
		want []string
	}{
		{"sim_digest", func(i int, _, change *synthRun) {
			if i == 2 {
				change.wls["cluster_saturated"].digest = "0000000000000001"
			}
		}, []string{"seed 3", "cluster_saturated", "sim_digest"}},
		{"correct", func(i int, _, change *synthRun) {
			if i == 4 {
				change.wls["borg_replay"].correct = false
			}
		}, []string{"seed 5", "borg_replay", "not correct", "change false"}},
		{"failed share", func(i int, _, change *synthRun) {
			change.wls["metrics_rw"].failed = 1
		}, []string{"metrics_rw", "failed 10 of 10000"}},
		{"env commit", func(i int, parent, _ *synthRun) {
			if i == 1 {
				parent.commit = changeSHA
			}
		}, []string{"seed 2", "measured " + changeSHA + " (parent)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, fails := judgeCase(t, tc.edit)
			wantFail(t, out, fails, tc.want...)
		})
	}
}

// A failed share no higher than the parent's passes, and so does a change
// built from a dirty tree.
func TestCompareEqualFailedShareAndDirtyTreePass(t *testing.T) {
	out, fails := judgeCase(t, func(i int, parent, change *synthRun) {
		parent.wls["metrics_rw"].failed = 2
		change.wls["metrics_rw"].failed = 2
		change.commit = changeSHA + "+dirty"
	})
	if len(fails) != 0 {
		t.Fatalf("got %q\n%s", fails, out)
	}
}

func TestCompareNewWorkload(t *testing.T) {
	out, fails := judgeCase(t, func(i int, parent, _ *synthRun) {
		delete(parent.wls, "bind_storm")
	})
	if len(fails) != 0 || strings.Count(out, ", new |") != 4 {
		t.Fatalf("want bind_storm new on four metrics and no failure, got %q\n%s", fails, out)
	}
	if !strings.Contains(out, `"bind_storm/ops_per_s":{"parent":null,"change":`) {
		t.Fatalf("trajectory line lacks a null parent for bind_storm\n%s", out)
	}
	out, fails = judgeCase(t, func(i int, _, change *synthRun) {
		delete(change.wls["bind_storm"].metrics, "setup_s")
	})
	wantFail(t, out, fails, "bind_storm", "the change reports no setup_s")
}

func TestParseRunRejects(t *testing.T) {
	for _, out := range []string{
		"",
		"bind_storm — op = x\n{}\n",
		"env: commit=abc\n\nbind_storm — op = x; sim_digest 1\n  ops_per_s 1\n",
	} {
		if _, err := parseRun(out); err == nil {
			t.Errorf("parseRun(%q) accepted it", out)
		}
	}
}
