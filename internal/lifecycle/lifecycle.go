// Package lifecycle derives per-workload-class latency distributions
// from the API server's pod event stream: how long pods queue before a
// scheduler binds them (submit→bind), how long kubelet admission and
// deployment take after that (bind→run), end-to-end time to first run
// (submit→run), and how long they then hold their node (run→finish).
//
// The tracker is a pure fold of the events it is handed: it keeps no
// per-pod state and no lock, and reads only the timestamps the server
// stamps on the pod versions it publishes (Status.SubmittedAt/
// ScheduledAt/StartedAt/FinishedAt), so the measured latencies are exact
// simulation-clock durations and the orchestrator's own paths carry no
// extra bookkeeping. A testbed's audit hands it each batch the reference
// model has read; a stack without an audit subscribes it with Track.
// Histogram totals are checkable against the event stream itself: every
// PodBound event contributes exactly one submit→bind sample, and every
// Running event — the server publishes one per binding — exactly one
// bind→run and one submit→run sample (a property test in the cluster
// package holds this identity across random workloads).
package lifecycle

import (
	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// latencyBuckets cover simulated lifecycle latencies: sub-second same-
// tick binds through hour-scale backlog waits.
var latencyBuckets = []float64{
	0.5, 1, 2.5, 5, 10, 15, 30, 60, 120, 300, 600, 1800, 3600,
}

// Tracker consumes pod watch events and feeds the per-class lifecycle
// histograms. One tracker per cluster.
type Tracker struct {
	queue   [api.NumClasses]*telemetry.Histogram // lifecycle_queue_seconds{class}
	startup [api.NumClasses]*telemetry.Histogram // lifecycle_startup_seconds{class}
	total   [api.NumClasses]*telemetry.Histogram // lifecycle_submit_to_run_seconds{class}
	run     [api.NumClasses]*telemetry.Histogram // lifecycle_run_seconds{class}

	reg         *telemetry.Registry
	unsubscribe func()
}

// New creates a tracker publishing into the registry. Returns nil on a
// nil registry — a nil tracker's methods are no-ops, so telemetry-off
// clusters feed nothing.
func New(reg *telemetry.Registry) *Tracker {
	if reg == nil {
		return nil
	}
	t := &Tracker{reg: reg}
	queue := reg.HistogramVec("lifecycle_queue_seconds", "class", latencyBuckets)
	startup := reg.HistogramVec("lifecycle_startup_seconds", "class", latencyBuckets)
	total := reg.HistogramVec("lifecycle_submit_to_run_seconds", "class", latencyBuckets)
	run := reg.HistogramVec("lifecycle_run_seconds", "class", latencyBuckets)
	for i, c := range api.Classes {
		l := c.Label()
		t.queue[i] = queue.With(l)
		t.startup[i] = startup.With(l)
		t.total[i] = total.With(l)
		t.run[i] = run.With(l)
	}
	return t
}

// Track subscribes the tracker to the server's event stream, for a
// stack with no audit to feed it (bench/'s traced stack, its one
// caller). In the default synchronous watch mode consumption is inline
// and lossless; in async mode a tracker that falls off the ring counts a
// resync and continues — the skipped interval's samples are lost, which
// the lifecycle_resyncs_total counter, registered here, makes visible
// rather than silent.
func (t *Tracker) Track(srv *apiserver.Server) {
	if t == nil {
		return
	}
	resyncs := t.reg.Counter("lifecycle_resyncs_total")
	t.unsubscribe = srv.SubscribeBatch(t.Consume, func(apiserver.Snapshot) {
		resyncs.Inc()
	})
}

// Close detaches a tracker that Track subscribed from its server.
func (t *Tracker) Close() {
	if t == nil || t.unsubscribe == nil {
		return
	}
	t.unsubscribe()
	t.unsubscribe = nil
}

// Consume folds a batch of pod events into the histograms: a queue
// sample per PodBound, a startup and a submit-to-run sample per Running
// event, and a run sample per terminal event of a pod that started.
// Batches may be consumed concurrently.
func (t *Tracker) Consume(evs []apiserver.WatchEvent) {
	if t == nil {
		return
	}
	for i := range evs {
		ev := &evs[i]
		if ev.Pod == nil {
			continue
		}
		st, ci := &ev.Pod.Status, ev.Pod.Spec.Class.Slot()
		switch {
		case ev.Type == apiserver.PodBound:
			// One queue-wait sample per bind: a preempted pod that
			// requeues and binds again waited in the queue twice.
			t.queue[ci].Observe(st.ScheduledAt.Sub(st.SubmittedAt).Seconds())
		case ev.Type != apiserver.PodUpdated:
		case st.Phase == api.PodRunning:
			t.startup[ci].Observe(st.StartedAt.Sub(st.ScheduledAt).Seconds())
			t.total[ci].Observe(st.StartedAt.Sub(st.SubmittedAt).Seconds())
		case ev.Pod.IsTerminal() && !st.StartedAt.IsZero():
			// A preemption clears StartedAt, so a requeued pod's run
			// is sampled once per binding that started.
			t.run[ci].Observe(st.FinishedAt.Sub(st.StartedAt).Seconds())
		}
	}
}

// BindsObserved returns how many PodBound events the tracker consumed:
// the total count of the lifecycle_queue_seconds histograms.
func (t *Tracker) BindsObserved() int64 {
	if t == nil {
		return 0
	}
	return counts(&t.queue)
}

// RunsObserved returns how many Running events the tracker consumed: the
// total count of the startup (and submit-to-run) histograms.
func (t *Tracker) RunsObserved() int64 {
	if t == nil {
		return 0
	}
	return counts(&t.startup)
}

func counts(hs *[api.NumClasses]*telemetry.Histogram) (n int64) {
	for _, h := range hs {
		n += h.Count()
	}
	return n
}
