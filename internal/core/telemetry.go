package core

import (
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// This file is the scheduler's instrumentation layer: pre-resolved
// registry handles (schedMetrics) and the reusable per-pass recorder
// feeding the trace ring. There is one pass; timing is sampled inside it
// through the recorder's nil-safe methods, never in a second copy of the
// code being timed. Everything here is designed around two hard budgets,
// pinned by BenchmarkInstrumentedPass and the alloc guards in
// telemetry_core_test.go:
//
//   - telemetry disabled (Config.Telemetry nil): zero allocations and
//     zero clock reads added to a pass — the pass holds a nil recorder
//     and every site is behind that nil check;
//   - telemetry enabled: pass-level spans (snapshot-sync, bind commits,
//     wall time) are timed on every pass — a handful of clock reads per
//     pass — while per-pod stage timing (prefilter, filter, score,
//     permit, preemption plan) runs only on every
//     DefaultTraceDetailEvery-th pass, amortising its per-pod clock
//     reads to a few percent: the cycle holds the recorder on those
//     passes and nil on all others (detailOnly).

// DefaultTraceDetailEvery is how often a pass records detailed per-pod
// stage timing (1 in N passes; see Scheduler.traceDetailEvery).
const DefaultTraceDetailEvery = 32

// Pass stage indexes (dense array form of the telemetry.Stage* names).
const (
	stageSync = iota
	stagePreFilter
	stageFilter
	stageScore
	stagePermit
	stagePreempt
	stageBind
	numStages
)

// stageNames maps stage indexes to their exported span names.
var stageNames = [numStages]string{
	telemetry.StageSnapshotSync,
	telemetry.StagePreFilter,
	telemetry.StageFilter,
	telemetry.StageScore,
	telemetry.StagePermit,
	telemetry.StagePreempt,
	telemetry.StageBind,
}

// passBuckets are wall-time buckets for pass and stage durations:
// exponential 10µs … 2.5s — a pass at paper scale runs tens of
// microseconds, a million-pod pass ~10ms.
var passBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// schedMetrics holds the scheduler's registry handles, resolved once at
// construction so pass-time updates are single atomic operations.
// Handles are shared across a sharded fleet: the registry returns the
// same series for the same name, so member counters aggregate.
type schedMetrics struct {
	passDur  *telemetry.Histogram // its count is Stats.Passes
	stageDur [numStages]*telemetry.Histogram

	conflicts *telemetry.Counter
	sampled   *telemetry.Counter
	gated     *telemetry.Counter

	bound         [api.NumClasses]*telemetry.Counter
	unschedulable [api.NumClasses]*telemetry.Counter
	preemptions   [api.NumClasses]*telemetry.Counter
	victims       [api.NumClasses]*telemetry.Counter
	held          [api.NumClasses]*telemetry.Counter
}

func newSchedMetrics(reg *telemetry.Registry) *schedMetrics {
	if reg == nil {
		return nil
	}
	m := &schedMetrics{
		passDur:   reg.Histogram("scheduler_pass_duration_seconds", passBuckets),
		conflicts: reg.Counter("scheduler_conflicts_total"),
		sampled:   reg.Counter("scheduler_sampled_pods_total"),
		gated:     reg.Counter("scheduler_gated_total"),
	}
	stages := reg.HistogramVec("scheduler_stage_duration_seconds", "stage", passBuckets)
	for i := range m.stageDur {
		m.stageDur[i] = stages.With(stageNames[i])
	}
	bound := reg.CounterVec("scheduler_bound_total", "class")
	unsched := reg.CounterVec("scheduler_unschedulable_total", "class")
	preempt := reg.CounterVec("scheduler_preemptions_total", "class")
	victims := reg.CounterVec("scheduler_victims_total", "class")
	held := reg.CounterVec("scheduler_held_total", "class")
	for i, class := range api.Classes {
		l := class.Label()
		m.bound[i] = bound.With(l)
		m.unschedulable[i] = unsched.With(l)
		m.preemptions[i] = preempt.With(l)
		m.victims[i] = victims.With(l)
		m.held[i] = held.With(l)
	}
	return m
}

// passRecorder is the reusable per-pass trace accumulator. One lives in
// each Scheduler, guarded by passMu like the other pass buffers; its
// span buffer is recycled so a steady-state instrumented pass allocates
// only the ring's retained copy. All methods are nil-receiver-safe: a nil
// recorder (telemetry disabled) never reads the clock.
type passRecorder struct {
	start   time.Time
	seq     int64
	detail  bool
	stageNS [numStages]int64
	stageN  [numStages]int
	spans   []telemetry.Span
}

// begin resets the recorder for one pass. Detailed passes (1 in
// detailEvery) carry per-pod stage timing.
func (r *passRecorder) begin(seq int64, detailEvery int) {
	r.start = time.Now()
	r.seq = seq
	r.detail = detailEvery > 0 && seq%int64(detailEvery) == 0
	r.stageNS = [numStages]int64{}
	r.stageN = [numStages]int{}
}

// now reads the wall clock — the zero time on a nil recorder, so
// disabled schedulers never pay for a clock read.
func (r *passRecorder) now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// detailOnly returns r on a detail-sampled pass and nil otherwise — the
// recorder handed to everything that times per pod.
func (r *passRecorder) detailOnly() *passRecorder {
	if r == nil || !r.detail {
		return nil
	}
	return r
}

// stageSince folds the time since t0 (a value from now) into a stage
// accumulator as one timed slice.
func (r *passRecorder) stageSince(stage int, t0 time.Time) {
	if r == nil {
		return
	}
	r.stageNS[stage] += int64(time.Since(t0))
	r.stageN[stage]++
}

// trace assembles the pass's stage spans and its tally into a PassTrace
// over the recorder's reused span buffer; the ring copies on record.
func (r *passRecorder) trace(scheduler string, wall time.Duration, pending int, tally *Stats) telemetry.PassTrace {
	r.spans = r.spans[:0]
	for i := 0; i < numStages; i++ {
		if r.stageN[i] == 0 && r.stageNS[i] == 0 {
			continue
		}
		r.spans = append(r.spans, telemetry.Span{
			Stage: stageNames[i],
			Dur:   time.Duration(r.stageNS[i]),
			Count: r.stageN[i],
		})
	}
	return telemetry.PassTrace{
		Scheduler:     scheduler,
		Seq:           r.seq,
		Start:         r.start,
		Wall:          wall,
		Detailed:      r.detail,
		Pending:       pending,
		Bound:         tally.Bound,
		Unschedulable: tally.Unschedulable,
		Gated:         tally.Gated,
		Conflicts:     tally.Conflicts,
		Held:          tally.Held,
		Preemptions:   tally.Preemptions,
		Spans:         r.spans,
	}
}

// recordPass closes out one instrumented pass: observes the duration
// histograms, adds the pass tally — the same value Scheduler.Stats
// accumulates — to the registry counters, and pushes the trace onto
// Config.Trace, when there is one. pending is the pods the pass examined
// (PassTrace.Pending), not the queue's depth. Called once per pass with
// passMu held.
func (s *Scheduler) recordPass(rec *passRecorder, pending int, tally *Stats) {
	wall := time.Since(rec.start)
	m := s.metrics
	m.passDur.ObserveDuration(wall)
	for i := 0; i < numStages; i++ {
		if rec.stageN[i] == 0 && rec.stageNS[i] == 0 {
			continue
		}
		m.stageDur[i].Observe(time.Duration(rec.stageNS[i]).Seconds())
	}
	m.conflicts.Add(int64(tally.Conflicts))
	m.sampled.Add(int64(tally.Sampled))
	m.gated.Add(int64(tally.Gated))
	for i := range tally.ByClass {
		c := &tally.ByClass[i]
		m.bound[i].Add(int64(c.Bound))
		m.unschedulable[i].Add(int64(c.Unschedulable))
		m.preemptions[i].Add(int64(c.Preemptions))
		m.victims[i].Add(int64(c.Victims))
		m.held[i].Add(int64(c.Held))
	}
	if pending > 0 && s.cfg.Trace != nil {
		s.cfg.Trace.Record(rec.trace(s.cfg.Name, wall, pending, tally))
	}
}
