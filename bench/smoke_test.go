package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/influxql"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables the
// program reports from, and to the limits the driver refuses files over.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name() {
			t.Errorf("workload %d is %q, the program has %q", i, spec.Workloads[i].Name, w.name())
		}
		if n := len(spec.Workloads[i].Why); n == 0 || n > 200 || strings.Contains(spec.Workloads[i].Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name(), n)
		}
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end_to_end metrics, the program has %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if spec.EndToEnd[i] != d {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, spec.EndToEnd[i], d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	layers := perLayerDefs()
	if len(spec.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per_layer metrics, the program has %d (limit 128)", len(spec.PerLayer), len(layers))
	}
	for i, d := range layers {
		if spec.PerLayer[i] != d {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, spec.PerLayer[i], d)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// runBench runs the command in-process and decodes its last stdout line.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-scale", "tiny", "-out", t.TempDir()}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not one JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("result line lacks %q", key)
		}
	}
	if len(raw) != 4 {
		t.Errorf("result line has %d keys, want exactly correct, attempted, failed, metrics", len(raw))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res, stdout.String()
}

// TestSmokeEveryWorkload runs each workload at the tiny scale, untraced
// and traced, with the correctness checks on, and holds the result line
// to the metric sets of BENCHMARK.json.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name(), func(t *testing.T) {
			res, report := runBench(t, "--workload", w.name(), "--seed", "7", "--seconds", "1", "--trace", "0")
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("untraced: %+v", res)
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, d := range spec.EndToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("end-to-end %s = %+v (present %v): must be reported, in %s, and never 0", d.Name, m, ok, d.Unit)
				}
				if !strings.Contains(report, d.Name) {
					t.Errorf("report does not print %s by name", d.Name)
				}
			}

			res, report = runBench(t, "--workload", w.name(), "--seed", "7", "--seconds", "1", "--trace", "1")
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: %+v", res)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
			}
			for _, d := range spec.PerLayer {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer %s = %+v (present %v)", d.Name, m, ok)
				}
			}
			if res.Metrics["trace.spans"].Value <= 0 {
				t.Error("the traced run recorded no spans")
			}
			if !strings.Contains(report, "trace.overhead_share") {
				t.Error("trace.overhead_share is not reported")
			}
		})
	}
}

// TestLayerReach: a workload reports activity in the layers it drives and
// zero in the ones it bypasses — the "no change" side of every prediction.
func TestLayerReach(t *testing.T) {
	reach := map[string]struct{ drives, bypasses []string }{
		"borg_replay":       {[]string{"core.passes", "kubelet.timers", "monitor.samples", "watch.deliveries", "sim_makespan_s"}, []string{"telemetry.scrapes", "influxql.queries", "core.round_p50_ms", "core.preemptions"}},
		"cluster_saturated": {[]string{"core.passes", "telemetry.scrapes", "lifecycle.consume_ns_per_event", "sim_ls_wait_p99_s"}, []string{"influxql.queries", "watch.quiesce_ms"}},
		"bind_storm":        {[]string{"core.round_p50_ms", "apiserver.bind_bound", "watch.mean_batch", "apiserver.pending_visit_us"}, []string{"kubelet.timers", "monitor.samples", "tsdb.points_written", "influxql.queries", "sim_makespan_s"}},
		"metrics_rw":        {[]string{"influxql.queries", "tsdb.points_written", "monitor.windowmax_series", "query_p50_us"}, []string{"apiserver.events", "watch.deliveries", "core.passes", "kubelet.timers"}},
	}
	for _, w := range workloads {
		t.Run(w.name(), func(t *testing.T) {
			res, _ := runBench(t, "--workload", w.name(), "--trace", "1")
			for _, name := range reach[w.name()].drives {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s should be above 0 on %s, is %v", name, w.name(), res.Metrics[name].Value)
				}
			}
			for _, name := range reach[w.name()].bypasses {
				if res.Metrics[name].Value != 0 {
					t.Errorf("%s should be 0 on %s, is %v", name, w.name(), res.Metrics[name].Value)
				}
			}
		})
	}
}

// TestSimDigestFollowsSeed: equal seeds replay identically, different
// seeds do not.
func TestSimDigestFollowsSeed(t *testing.T) {
	for _, w := range []workload{borgReplay{}, clusterSaturated{}} {
		digest := func(seed int64) uint64 {
			res, err := measureUntraced(w, options{seed: seed, seconds: 1}, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			if res.digest == 0 {
				t.Fatalf("%s reports no sim digest", w.name())
			}
			return res.digest
		}
		a, b, c := digest(3), digest(3), digest(4)
		if a != b {
			t.Errorf("%s: seed 3 gave digests %016x and %016x", w.name(), a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same digest %016x", w.name(), a)
		}
	}
}

func TestRefusesOversubscription(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "tiny", "-workload", "metrics_rw"}, &stdout, &stderr); code == 0 {
		t.Error("GOMAXPROCS above the processor count must be refused")
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused run must print no result, printed %q", stdout.String())
	}
}

func TestRejectsUnknownWorkloadAndScale(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-scale", "huge"}, {"-trace", "2"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("bench %v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestCompareRowsCatchesWrongSum exercises the metrics_rw check itself.
func TestCompareRowsCatchesWrongSum(t *testing.T) {
	res := influxql.Result{Rows: []influxql.Row{
		{Tags: map[string]string{"nodename": "node-00"}, Value: 10},
		{Tags: map[string]string{"nodename": "node-01"}, Value: 20},
	}}
	if err := compareRows(res, map[string]float64{"node-00": 10, "node-01": 20}); err != nil {
		t.Errorf("matching sums rejected: %v", err)
	}
	if compareRows(res, map[string]float64{"node-00": 10, "node-01": 21}) == nil {
		t.Error("a wrong per-node sum passed")
	}
	if compareRows(res, map[string]float64{"node-00": 10}) == nil {
		t.Error("an unexpected node passed")
	}
}

// TestReplayReproducesTheLog: the mutation log replayed into a bare
// server publishes the same number of events and binds the same pods.
func TestReplayReproducesTheLog(t *testing.T) {
	cp := newCapture()
	rc := &repCtx{seed: 5, rep: 1, sc: tinyScale, tr: newTracer(), cap: cp}
	if err := (clusterSaturated{}).rep(rc); err != nil {
		t.Fatal(err)
	}
	if len(cp.events) == 0 || len(cp.writes) == 0 || cp.lossy {
		t.Fatalf("capture: %d events, %d writes, lossy %v", len(cp.events), len(cp.writes), cp.lossy)
	}
	srv := apiserver.New(clock.NewSim())
	defer srv.Close()
	if _, skipped := replayMutations(srv, cp.events); skipped != 0 {
		t.Errorf("%d of %d events could not be replayed", skipped, len(cp.events))
	}
	binds := 0
	for _, ev := range cp.events {
		if ev.Type == apiserver.PodBound {
			binds++
		}
	}
	if got := srv.BindStats().Bound; got != int64(binds) {
		t.Errorf("replay bound %d pods, the log has %d binds", got, binds)
	}
	if got := srv.WatchStats().Published; got != int64(len(cp.events)) {
		t.Errorf("replay published %d events, the log has %d", got, len(cp.events))
	}
	if !srv.AllTerminal() {
		t.Error("the replayed run ended with live pods")
	}
}
