// Command bench is the repository's whole-stack benchmark: four
// workloads, measured end to end with tracing off, and a separate traced
// run that attributes the same work to the layers. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
)

var workloads = []workload{borgReplay{}, clusterSaturated{}, bindStorm{}, metricsRW{}}

// options are the command line.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	scale      string
	selfcheck  bool
	cpuProfile bool
	memProfile bool
	outDir     string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (borg_replay, cluster_saturated, bind_storm, metrics_rw); all when empty")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload (sum of the timed regions)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and its per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "per-rep sizes: full, or tiny for smoke tests")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice in alternating order and fail if any end-to-end metric differs by more than its bound")
	fs.BoolVar(&o.cpuProfile, "cpuprofile", false, "traced run: write out/cpu-<workload>.pprof")
	fs.BoolVar(&o.memProfile, "memprofile", false, "traced run: write out/mem-<workload>.pprof")
	fs.StringVar(&o.outDir, "out", "out", "directory for span files and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := realMain(o, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func realMain(o options, stdout io.Writer) error {
	if fs := runtime.GOMAXPROCS(0); fs > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d processors present: the run would measure oversubscription", fs, runtime.NumCPU())
	}
	sc, err := scaleByName(o.scale)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, got %d", o.trace)
	}
	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	fmt.Fprintln(stdout, environment(o))

	if o.selfcheck {
		return selfcheck(selected, o, sc, stdout)
	}
	results := make(map[string]result, len(selected))
	for _, w := range selected {
		var res result
		if o.trace == 1 {
			res, err = measureTraced(w, o, sc)
		} else {
			res, err = measureUntraced(w, o, sc)
		}
		if err != nil {
			return err
		}
		res.print(stdout)
		results[w.name()] = res
	}
	// The last line is the machine-readable result: one object for a
	// single workload, an object per workload name otherwise.
	enc := json.NewEncoder(stdout)
	if o.workload != "" {
		return enc.Encode(results[o.workload])
	}
	return enc.Encode(results)
}

func scaleByName(name string) (scale, error) {
	for _, sc := range []scale{fullScale, tinyScale} {
		if sc.name == name {
			return sc, nil
		}
	}
	return scale{}, fmt.Errorf("unknown -scale %q (full, tiny)", name)
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name() == name {
			return w, nil
		}
		names = append(names, w.name())
	}
	return nil, fmt.Errorf("unknown -workload %q (%s)", name, strings.Join(names, ", "))
}

// environment is the record every run opens with: what was measured, on
// what.
func environment(o options) string {
	commit, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return fmt.Sprintf("env: commit=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d storm_schedulers=%d seed=%d seconds=%g scale=%s trace=%d",
		commit+dirty, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), stormSchedulers(), o.seed, o.seconds, o.scale, o.trace)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome. Its JSON form is the line the driver
// reads; the remaining fields feed the printed report.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload workload
	defs     []metricDef
	// scoped holds the end-to-end metrics only some workloads have; they
	// are printed with the others but are not part of the result line.
	scoped    map[string]metricValue
	estimates map[string]estimate // spread per metric, where it is taken over reps
	reps      int
	digest    uint64
	notes     []string
	run       runResult // the untraced reps behind the estimates
}

func (r result) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s — op = %s; %d reps, %d ops attempted, %d failed", r.workload.name(), r.workload.opName(), r.reps, r.Attempted, r.Failed)
	if r.digest != 0 {
		fmt.Fprintf(w, "; sim_digest %016x", r.digest)
	}
	fmt.Fprintln(w)
	for _, d := range r.defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			if m, ok = r.scoped[d.Name]; !ok {
				continue
			}
		}
		line := fmt.Sprintf("  %-34s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if e, ok := r.estimates[d.Name]; ok && e.Reps > 0 {
			line += fmt.Sprintf(" n=%d iqr=%.3g cov=%.2f%%", e.Reps, e.IQR, 100*e.CoV)
			if strings.HasSuffix(d.Name, "_p99_us") && !tenBeyond(e.Reps, 0.99) {
				line += " (fewer than ten samples beyond p99)"
			}
			if d.Bound > 0 {
				line += fmt.Sprintf(" bound=%g%%", 100*d.Bound)
				if !e.resolved(d.Bound) {
					line = fmt.Sprintf("  %-34s %14s %-6s n=%d cov=%.2f%% (median %.6g: its standard error exceeds half the %g%% bound)",
						d.Name, "unresolved", m.Unit, e.Reps, 100*e.CoV, m.Value, 100*d.Bound)
				}
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// reportedDigest folds the digests of the first two timed reps — every
// run has at least two, so equal seeds print equal digests however many
// reps the time budget allowed.
func reportedDigest(r runResult) uint64 {
	if len(r.reps) < 2 || r.reps[0].digest == 0 {
		return 0
	}
	return runResult{reps: r.reps[:2]}.digest()
}

// endToEnd computes the all-workload end-to-end estimates of a run.
func endToEnd(r runResult) map[string]estimate {
	perOp := func(f func(repResult) float64) []float64 {
		return r.column(func(rep repResult) float64 { return ratio(f(rep), float64(rep.ops)) })
	}
	return map[string]estimate{
		"setup_s":            estimateOf(r.column(func(rep repResult) float64 { return rep.setup.Seconds() })),
		"ops_per_s":          estimateOf(r.column(func(rep repResult) float64 { return ratio(float64(rep.ops), rep.wall.Seconds()) })),
		"alloc_bytes_per_op": estimateOf(perOp(func(rep repResult) float64 { return float64(rep.allocBytes) })),
		"allocs_per_op":      estimateOf(perOp(func(rep repResult) float64 { return float64(rep.mallocs) })),
	}
}

func untracedOpts(o options, sc scale) runOpts {
	ro := runOpts{seed: o.seed, seconds: o.seconds, sc: sc, minReps: 2}
	if sc.name == tinyScale.name {
		ro.maxReps = 2
	}
	return ro
}

// plainArm runs reps with tracing off, through the public entry points.
func plainArm(o options, sc scale) *arm {
	return &arm{mk: func(rep int) *repCtx { return &repCtx{seed: o.seed, rep: rep, sc: sc} }}
}

// measureUntraced is the end-to-end run: tracing off, public entry points.
func measureUntraced(w workload, o options, sc scale) (result, error) {
	plain := plainArm(o, sc)
	if err := runReps(w, untracedOpts(o, sc), plain); err != nil {
		return result{}, err
	}
	rr := plain.out
	res := result{Correct: true, Metrics: make(map[string]metricValue), workload: w, reps: len(rr.reps), digest: reportedDigest(rr), run: rr}
	res.Attempted, res.Failed = rr.attempted()
	res.estimates = endToEnd(rr)
	res.defs = append(res.defs, endToEndDefs...)
	for _, d := range endToEndDefs {
		res.Metrics[d.Name] = metricValue{res.estimates[d.Name].Value, d.Unit}
	}
	res.scoped = make(map[string]metricValue)
	scoped := scopedValues(rr)
	for _, d := range scopedDefs {
		if e, ok := scoped[d.Name]; ok {
			res.defs = append(res.defs, d)
			res.estimates[d.Name] = e
			res.scoped[d.Name] = metricValue{e.Value, d.Unit}
		}
	}
	return res, nil
}

// maxSpans ends a traced run early: past it the span file stops being
// something a person opens.
const maxSpans = 200_000

// measureTraced is the layer-attributed run. Every rep index runs twice
// back to back — through the public entry points with tracing off, then
// through the traced harness — and the two must agree on the simulated
// outcome. The captured logs are then replayed through single layers.
func measureTraced(w workload, o options, sc scale) (result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, fmt.Errorf("creating %s: %w", o.outDir, err)
	}
	tracer := newTracer()
	tr := tracedRun{cap: newCapture()}
	plain := plainArm(o, sc)
	traced := &arm{mk: func(rep int) *repCtx {
		rc := &repCtx{seed: o.seed, rep: rep, sc: sc, tr: tracer}
		if rep == 1 {
			rc.cap = tr.cap
		}
		return rc
	}}
	arms := []*arm{plain, traced}
	if _, ok := w.(clusterSaturated); ok {
		// The telemetry toll: the first reps once more with the
		// observability plane off.
		arms = append(arms, &arm{maxReps: 3, mk: func(rep int) *repCtx {
			return &repCtx{seed: o.seed, rep: rep, sc: sc, noTelemetry: true}
		}})
	}
	ro := untracedOpts(o, sc)
	ro.full = func() bool { return tracer.len() >= maxSpans }

	stopProfile := func() error { return nil }
	if o.cpuProfile {
		var err error
		if stopProfile, err = startCPUProfile(filepath.Join(o.outDir, "cpu-"+w.name()+".pprof")); err != nil {
			return result{}, err
		}
	}
	tr.rtBefore = readRuntime()
	err := runReps(w, ro, arms...)
	tr.rtAfter = readRuntime()
	if perr := stopProfile(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return result{}, err
	}
	if o.memProfile {
		if err := writeHeapProfile(filepath.Join(o.outDir, "mem-"+w.name()+".pprof")); err != nil {
			return result{}, err
		}
	}
	tr.untraced, tr.traced, tr.spans = plain.out, traced.out, tracer.snapshot()
	if len(arms) == 3 {
		tr.noTelem = &arms[2].out
	}

	// The traced harness must have computed what the public entry points
	// compute: rep for rep, the same simulated outcome.
	for i := range tr.traced.reps {
		if u, t := tr.untraced.reps[i].digest, tr.traced.reps[i].digest; u != t {
			return result{}, fmt.Errorf("%s rep %d: traced sim_digest %016x differs from untraced %016x", w.name(), i+1, t, u)
		}
	}

	values, err := layerMetrics(tr)
	if err != nil {
		return result{}, err
	}
	spanFile := filepath.Join(o.outDir, "trace-"+w.name()+".json")
	if err := writeSpans(spanFile, w.name(), tr.spans); err != nil {
		return result{}, err
	}

	res := result{Correct: true, Metrics: make(map[string]metricValue), workload: w, reps: len(tr.traced.reps), digest: reportedDigest(tr.traced)}
	res.Attempted, res.Failed = tr.traced.attempted()
	res.defs = perLayerDefs()
	for _, d := range res.defs {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%d spans in %s", len(tr.spans), spanFile),
		"every traced rep ran beside an untraced one on the same inputs; their sim_digest agree rep for rep")
	if tr.cap.lossy {
		res.notes = append(res.notes, "the capture lost events: replayed figures price a prefix of the rep")
	}
	return res, nil
}

func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC()
	if err := errors.Join(pprof.Lookup("allocs").WriteTo(f, 0), f.Close()); err != nil {
		return fmt.Errorf("heap profile %s: %w", path, err)
	}
	return nil
}
