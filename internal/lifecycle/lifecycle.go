// Package lifecycle derives per-workload-class latency distributions
// from the API server's pod event stream: how long pods queue before a
// scheduler binds them (submit→bind), how long kubelet admission and
// deployment take after that (bind→run), end-to-end time to first run
// (submit→run), and how long they then hold their node (run→finish).
//
// The tracker is a pure watch consumer — it subscribes like a kubelet
// and reads only the timestamps the server stamps on the pod clones it
// publishes (Status.SubmittedAt/ScheduledAt/StartedAt/FinishedAt), so
// the measured latencies are exact simulation-clock durations and the
// orchestrator's own paths carry no extra bookkeeping. Histogram totals
// are therefore checkable against the event stream itself: every
// PodBound event contributes exactly one submit→bind sample, every
// first transition to Running exactly one bind→run and one submit→run
// sample (a property test in the cluster package holds this identity
// across random workloads).
package lifecycle

import (
	"sync"

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
// histograms. One tracker per cluster; attach with Track.
type Tracker struct {
	queue   [api.NumClasses]*telemetry.Histogram // lifecycle_queue_seconds{class}
	startup [api.NumClasses]*telemetry.Histogram // lifecycle_startup_seconds{class}
	total   [api.NumClasses]*telemetry.Histogram // lifecycle_submit_to_run_seconds{class}
	run     [api.NumClasses]*telemetry.Histogram // lifecycle_run_seconds{class}

	binds   *telemetry.Counter // lifecycle_binds_observed_total
	runs    *telemetry.Counter // lifecycle_runs_observed_total
	resyncs *telemetry.Counter // lifecycle_resyncs_total

	mu sync.Mutex
	// running marks pods whose first transition to Running was observed,
	// so repeated status updates in the Running phase cannot double-count
	// startup samples. Entries leave on terminal or requeue events, so
	// the set is bounded by live pods.
	running map[string]bool

	unsubscribe func()
}

// New creates a tracker publishing into the registry. Returns nil on a
// nil registry — a nil tracker's methods are no-ops, so telemetry-off
// clusters skip the subscription entirely.
func New(reg *telemetry.Registry) *Tracker {
	if reg == nil {
		return nil
	}
	t := &Tracker{
		binds:   reg.Counter("lifecycle_binds_observed_total"),
		runs:    reg.Counter("lifecycle_runs_observed_total"),
		resyncs: reg.Counter("lifecycle_resyncs_total"),
		running: make(map[string]bool),
	}
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

// Track subscribes the tracker to the server's event stream (Consume
// skips node events). In the default synchronous watch mode consumption
// is inline and lossless; in async mode a tracker that falls off the
// ring counts a resync and continues — the skipped interval's samples
// are lost, which the lifecycle_resyncs_total counter makes visible
// rather than silent.
func (t *Tracker) Track(srv *apiserver.Server) {
	if t == nil {
		return
	}
	t.unsubscribe = srv.SubscribeBatch(t.Consume, func(apiserver.Snapshot) {
		t.resyncs.Inc()
	})
}

// Close detaches the tracker from its server.
func (t *Tracker) Close() {
	if t == nil || t.unsubscribe == nil {
		return
	}
	t.unsubscribe()
	t.unsubscribe = nil
}

// Consume folds a batch of pod events into the histograms. Exported so
// tests can drive the tracker with a synthetic event stream and check
// the histogram-total identities directly.
func (t *Tracker) Consume(evs []apiserver.WatchEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range evs {
		ev := &evs[i]
		if ev.Pod == nil {
			continue
		}
		p := ev.Pod
		ci := p.Spec.Class.Slot()
		switch ev.Type {
		case apiserver.PodBound:
			// One queue-wait sample per bind: a preempted pod that
			// requeues and binds again waited in the queue twice.
			t.binds.Inc()
			t.queue[ci].Observe(p.Status.ScheduledAt.Sub(p.Status.SubmittedAt).Seconds())
		case apiserver.PodUpdated:
			switch p.Status.Phase {
			case api.PodRunning:
				if t.running[p.Name] || p.Status.StartedAt.IsZero() {
					continue
				}
				t.running[p.Name] = true
				t.runs.Inc()
				t.startup[ci].Observe(p.Status.StartedAt.Sub(p.Status.ScheduledAt).Seconds())
				t.total[ci].Observe(p.Status.StartedAt.Sub(p.Status.SubmittedAt).Seconds())
			case api.PodPending:
				// Preemption requeued the pod: its next run is a fresh
				// lifecycle.
				delete(t.running, p.Name)
			case api.PodSucceeded, api.PodFailed:
				if t.running[p.Name] && !p.Status.FinishedAt.IsZero() && !p.Status.StartedAt.IsZero() {
					t.run[ci].Observe(p.Status.FinishedAt.Sub(p.Status.StartedAt).Seconds())
				}
				delete(t.running, p.Name)
			}
		}
	}
}

// BindsObserved returns how many PodBound events the tracker consumed —
// the exact expected Count of the lifecycle_queue_seconds histograms.
func (t *Tracker) BindsObserved() int64 {
	if t == nil {
		return 0
	}
	return t.binds.Value()
}

// RunsObserved returns how many first-run transitions the tracker
// consumed — the exact expected Count of the startup and submit-to-run
// histograms.
func (t *Tracker) RunsObserved() int64 {
	if t == nil {
		return 0
	}
	return t.runs.Value()
}
