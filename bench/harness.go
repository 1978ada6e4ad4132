package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"
)

// scale fixes the per-rep size of every workload. A run may shorten the
// number of reps; it never changes these shapes. The tiny scale exists
// for the smoke tests only.
type scale struct {
	name string

	// borg_replay: jobs kept from the 663-job slice. A rep is one replay:
	// many short reps give the median more samples than a few long ones,
	// which on a noisy host is what steadies it.
	borgJobs int
	// cluster_saturated: eval slices pooled, jobs kept from each, and the
	// worker-node counts beside the master.
	satSlices, satJobs, satStd, satSGX int
	// bind_storm: nodes, backlog and extra batch watchers.
	stormNodes, stormPods, stormWatchers int
	// metrics_rw: nodes (the first rwSGX carry a probe), pods per node,
	// pods replaced per scrape, simulated minutes per rep.
	rwNodes, rwSGX, rwPods, rwChurn, rwMinutes int
}

var (
	fullScale = scale{
		name:      "full",
		borgJobs:  663,
		satSlices: 3, satJobs: 663, satStd: 8, satSGX: 4,
		stormNodes: 256, stormPods: 16384, stormWatchers: 4,
		rwNodes: 32, rwSGX: 8, rwPods: 64, rwChurn: 20, rwMinutes: 30,
	}
	tinyScale = scale{
		name:      "tiny",
		borgJobs:  60,
		satSlices: 1, satJobs: 90, satStd: 2, satSGX: 1,
		stormNodes: 16, stormPods: 512, stormWatchers: 2,
		rwNodes: 4, rwSGX: 1, rwPods: 8, rwChurn: 2, rwMinutes: 3,
	}
)

// subSeed derives the input seed of part i of repetition rep. Every rep
// of a run draws fresh inputs from the run seed, so a run's median
// averages over inputs instead of describing one draw — two runs with
// different seeds then agree to within the noise the bounds allow.
func subSeed(seed int64, rep, i int) int64 {
	return seed*1_000_003 + int64(rep)*101 + int64(i)
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	name() string
	// opName says what one op is, for the report.
	opName() string
	// rep runs one repetition: untimed set-up through rc.setup, the
	// measured work through rc.timed, teardown through rc.teardown, and
	// the correctness checks. A returned error is a failed check.
	rep(rc *repCtx) error
}

// repCtx carries one repetition's inputs in and its measurements out.
type repCtx struct {
	seed int64
	rep  int
	sc   scale

	// tr is nil in the untraced run. In the traced run the workload
	// assembles its stack from the layers' constructors and records a
	// span around every call it makes into a layer.
	tr *tracer
	// cap is non-nil on the one traced rep whose mutation and write logs
	// are kept for the per-layer replays.
	cap *capture
	// noTelemetry runs cluster_saturated with DisableTelemetry, for the
	// telemetry toll comparison.
	noTelemetry bool

	res repResult
}

// repResult is what one repetition measured.
type repResult struct {
	setup time.Duration // untimed construction and teardown of the program under test
	wall  time.Duration // the timed region
	// allocBytes/mallocs are runtime.MemStats TotalAlloc/Mallocs deltas
	// over the timed region.
	allocBytes, mallocs uint64
	// heapLive is HeapAlloc after a forced collection at the end of the
	// rep, before teardown (traced run only: the untraced borg_replay
	// goes through the public API, which tears its testbed down itself).
	heapLive uint64

	ops, failed int

	// Simulated-time outcomes (borg_replay, cluster_saturated).
	digest   uint64
	waits    []float64 // submission → start, simulated seconds, started jobs
	lsWaits  []float64 // the latency-sensitive class alone
	makespan float64   // simulated seconds

	// queryUS holds the host latency of every window query (metrics_rw).
	queryUS []float64

	// layer holds the per-rep counters a traced rep read from the layers'
	// own stats (BindStats, WatchStats, Scheduler.Stats, …).
	layer map[string]float64
}

// setup runs f outside the timed region and counts it as set-up time.
func (rc *repCtx) setup(f func()) {
	t0 := time.Now()
	f()
	rc.res.setup += time.Since(t0)
}

// teardown is setup's twin for after the timed region: stopping the
// program under test is untimed work that could absorb cost moved out of
// the timed region, so it counts as set-up time too.
func (rc *repCtx) teardown(f func()) { rc.setup(f) }

// timed runs f as (part of) the measured region. Before a rep's first
// timed call a forced collection retires the previous rep's garbage, so a
// mark cycle inherited from set-up does not run — write barriers and all
// — inside the measurement.
func (rc *repCtx) timed(f func()) {
	var m0, m1 runtime.MemStats
	if rc.res.wall == 0 {
		runtime.GC()
	}
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	rc.res.wall += time.Since(t0)
	runtime.ReadMemStats(&m1)
	rc.res.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	rc.res.mallocs += m1.Mallocs - m0.Mallocs
}

// measureLiveHeap records the heap still reachable at the end of the rep;
// traced workloads call it before tearing their stack down.
func (rc *repCtx) measureLiveHeap() {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	rc.res.heapLive = m.HeapAlloc
}

// addLayer accumulates a layer counter over the rep; maxLayer keeps the
// largest reading.
func (rc *repCtx) addLayer(name string, v float64) {
	if rc.res.layer == nil {
		rc.res.layer = make(map[string]float64)
	}
	rc.res.layer[name] += v
}

func (rc *repCtx) maxLayer(name string, v float64) {
	if rc.res.layer == nil {
		rc.res.layer = make(map[string]float64)
	}
	rc.res.layer[name] = max(rc.res.layer[name], v)
}

// digester folds per-job outcomes into the sim digest.
type digester struct{ h uint64 }

func newDigester() *digester { return &digester{h: 14695981039346656037} }

func (d *digester) add(parts ...any) {
	h := fnv.New64a()
	fmt.Fprint(h, parts...)
	// Order-sensitive fold: jobs are always visited in submission order.
	d.h = (d.h ^ h.Sum64()) * 1099511628211
}

func (d *digester) sum() uint64 { return d.h }

// runOpts bounds one measured run.
type runOpts struct {
	seed    int64
	seconds float64
	sc      scale
	// minReps is the least number of timed reps regardless of time, so
	// pooled tail percentiles have their samples; maxReps (0 = none) cuts
	// a run short for the smoke tests.
	minReps, maxReps int
	// full, when set, ends the run early once it reports true (the traced
	// run stops before its span buffer outgrows a readable file).
	full func() bool
}

// runResult is every timed rep of one arm of a run (the warm-up rep is
// dropped).
type runResult struct {
	reps []repResult
}

// arm is one way of running a rep — tracing off, tracing on, telemetry
// off. A run with several arms runs every rep index through each of them
// back to back, so the arms see the same inputs under the same machine
// conditions and can be compared rep for rep.
type arm struct {
	mk func(rep int) *repCtx
	// maxReps stops this arm alone after that many timed reps (0 = never).
	maxReps int
	out     runResult
}

// runReps runs one discarded warm-up rep per arm, then timed reps until
// the timed regions of all arms add up to the requested seconds. The
// same rep index always gets the same inputs.
func runReps(w workload, o runOpts, arms ...*arm) error {
	var measured time.Duration
	budget := time.Duration(o.seconds * float64(time.Second))
	for rep := 0; ; rep++ {
		for _, a := range arms {
			if a.maxReps > 0 && rep > a.maxReps {
				continue
			}
			rc := a.mk(rep)
			rc.tr.setRep(rep)
			if err := w.rep(rc); err != nil {
				return fmt.Errorf("%s rep %d (seed %d): %w", w.name(), rep, o.seed, err)
			}
			if rep == 0 {
				continue // warm-up: caches filled, lazy set-up done
			}
			a.out.reps = append(a.out.reps, rc.res)
			measured += rc.res.wall
		}
		switch {
		case rep == 0:
		case o.maxReps > 0 && rep >= o.maxReps:
			return nil
		case rep >= o.minReps && (measured >= budget || o.full != nil && o.full()):
			return nil
		}
	}
}

// column extracts one per-rep value from every rep.
func (r runResult) column(f func(repResult) float64) []float64 {
	xs := make([]float64, len(r.reps))
	for i, rep := range r.reps {
		xs[i] = f(rep)
	}
	return xs
}

func (r runResult) attempted() (ops, failed int) {
	for _, rep := range r.reps {
		ops += rep.ops
		failed += rep.failed
	}
	return ops, failed
}

// digest folds the per-rep sim digests, in rep order.
func (r runResult) digest() uint64 {
	d := newDigester()
	for _, rep := range r.reps {
		d.add(rep.digest)
	}
	return d.sum()
}
