package lifecycle

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

func event(typ apiserver.WatchEventType, pod *api.Pod) apiserver.WatchEvent {
	return apiserver.WatchEvent{Type: typ, Pod: pod}
}

// lifecyclePod builds a pod clone the way the server publishes them: all
// lifecycle timestamps stamped relative to an epoch.
func lifecyclePod(name string, class api.WorkloadClass, phase api.PodPhase, submitted, scheduled, started, finished time.Duration) *api.Pod {
	epoch := time.Unix(0, 0).UTC()
	stamp := func(d time.Duration) time.Time {
		if d < 0 {
			return time.Time{}
		}
		return epoch.Add(d)
	}
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{Class: class},
		Status: api.PodStatus{
			Phase:       phase,
			SubmittedAt: stamp(submitted),
			ScheduledAt: stamp(scheduled),
			StartedAt:   stamp(started),
			FinishedAt:  stamp(finished),
		},
	}
}

// TestTrackerLifecycleSamples drives a legal event stream — one Running
// event per binding, as the server publishes it — through every branch
// of Consume and checks the histogram samples: one queue sample per
// bind, one startup/total sample per Running event, a preemption
// requeue starting a fresh cycle, and a run-duration sample on terminal
// transitions of pods that started.
func TestTrackerLifecycleSamples(t *testing.T) {
	reg := telemetry.New()
	tr := New(reg)

	// Bind at 10s (submitted at 0), run at 12s, finish at 72s.
	tr.Consume([]apiserver.WatchEvent{
		event(apiserver.PodCreated, lifecyclePod("a", api.ClassBatch, api.PodPending, 0, -1, -1, -1)),
		event(apiserver.PodBound, lifecyclePod("a", api.ClassBatch, api.PodPending, 0, 10*time.Second, -1, -1)),
		event(apiserver.PodUpdated, lifecyclePod("a", api.ClassBatch, api.PodRunning, 0, 10*time.Second, 12*time.Second, -1)),
		event(apiserver.PodUpdated, lifecyclePod("a", api.ClassBatch, api.PodSucceeded, 0, 10*time.Second, 12*time.Second, 72*time.Second)),
	})
	queue := reg.HistogramVec("lifecycle_queue_seconds", "class", nil).With("batch")
	startup := reg.HistogramVec("lifecycle_startup_seconds", "class", nil).With("batch")
	run := reg.HistogramVec("lifecycle_run_seconds", "class", nil).With("batch")
	if queue.Count() != 1 || queue.Sum() != 10 {
		t.Fatalf("queue histogram = (%d, %v), want (1, 10)", queue.Count(), queue.Sum())
	}
	if startup.Count() != 1 || startup.Sum() != 2 {
		t.Fatalf("startup histogram = (%d, %v), want (1, 2)", startup.Count(), startup.Sum())
	}
	if run.Count() != 1 || run.Sum() != 60 {
		t.Fatalf("run histogram = (%d, %v), want (1, 60)", run.Count(), run.Sum())
	}

	// A preempted pod: bind, run, requeue to Pending (the server clears
	// ScheduledAt and StartedAt), bind and run again — two full cycles,
	// each sampled — then evicted after running for 7s.
	tr.Consume([]apiserver.WatchEvent{
		event(apiserver.PodBound, lifecyclePod("b", api.ClassBestEffort, api.PodPending, 0, 5*time.Second, -1, -1)),
		event(apiserver.PodUpdated, lifecyclePod("b", api.ClassBestEffort, api.PodRunning, 0, 5*time.Second, 6*time.Second, -1)),
		event(apiserver.PodUpdated, lifecyclePod("b", api.ClassBestEffort, api.PodPending, 0, -1, -1, -1)),
		event(apiserver.PodBound, lifecyclePod("b", api.ClassBestEffort, api.PodPending, 0, 30*time.Second, -1, -1)),
		event(apiserver.PodUpdated, lifecyclePod("b", api.ClassBestEffort, api.PodRunning, 0, 30*time.Second, 33*time.Second, -1)),
		event(apiserver.PodUpdated, lifecyclePod("b", api.ClassBestEffort, api.PodFailed, 0, 30*time.Second, 33*time.Second, 40*time.Second)),
	})
	beQueue := reg.HistogramVec("lifecycle_queue_seconds", "class", nil).With("best-effort")
	beStartup := reg.HistogramVec("lifecycle_startup_seconds", "class", nil).With("best-effort")
	beRun := reg.HistogramVec("lifecycle_run_seconds", "class", nil).With("best-effort")
	if beQueue.Count() != 2 {
		t.Fatalf("preempted pod queue samples = %d, want 2 (one per bind)", beQueue.Count())
	}
	if beStartup.Count() != 2 || beStartup.Sum() != 4 {
		t.Fatalf("preempted pod startup = (%d, %v), want (2, 4): the requeue resets the cycle", beStartup.Count(), beStartup.Sum())
	}
	if beRun.Count() != 1 || beRun.Sum() != 7 {
		t.Fatalf("preempted pod run = (%d, %v), want (1, 7)", beRun.Count(), beRun.Sum())
	}
	if tr.BindsObserved() != 3 || tr.RunsObserved() != 3 {
		t.Fatalf("observed = (%d, %d), want (3, 3)", tr.BindsObserved(), tr.RunsObserved())
	}

	// A pod that fails before it starts (an admission denial after its
	// bind) leaves no run sample; events without pods are skipped.
	tr.Consume([]apiserver.WatchEvent{
		event(apiserver.PodBound, lifecyclePod("c", api.ClassBatch, api.PodPending, 0, 5*time.Second, -1, -1)),
		event(apiserver.PodUpdated, lifecyclePod("c", api.ClassBatch, api.PodFailed, 0, 5*time.Second, -1, 6*time.Second)),
		{Type: apiserver.NodeUpdated},
	})
	if run.Count() != 1 || tr.RunsObserved() != 3 || tr.BindsObserved() != 4 {
		t.Fatalf("after an unstarted failure: run samples %d, observed (%d, %d); want 1, (4, 3)",
			run.Count(), tr.BindsObserved(), tr.RunsObserved())
	}
}

// TestTrackerConsumeConcurrent: goroutines consume disjoint legal streams
// into one tracker at once, and the histogram totals add up — the tracker
// keeps no state of its own that would need a lock (run it under -race).
func TestTrackerConsumeConcurrent(t *testing.T) {
	const workers, pods = 4, 200
	reg := telemetry.New()
	tr := New(reg)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pods; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				class := api.Classes[i%len(api.Classes)]
				// Each pod is delivered as its own three-event batch.
				tr.Consume([]apiserver.WatchEvent{
					event(apiserver.PodBound, lifecyclePod(name, class, api.PodPending, 0, time.Second, -1, -1)),
					event(apiserver.PodUpdated, lifecyclePod(name, class, api.PodRunning, 0, time.Second, 3*time.Second, -1)),
					event(apiserver.PodUpdated, lifecyclePod(name, class, api.PodSucceeded, 0, time.Second, 3*time.Second, 9*time.Second)),
				})
			}
		}()
	}
	wg.Wait()
	const want = workers * pods
	if b, r := tr.BindsObserved(), tr.RunsObserved(); b != want || r != want {
		t.Fatalf("observed = (%d, %d), want (%d, %d)", b, r, want, want)
	}
	var runs int64
	var runSum float64
	for _, c := range api.Classes {
		h := reg.HistogramVec("lifecycle_run_seconds", "class", nil).With(c.Label())
		runs, runSum = runs+h.Count(), runSum+h.Sum()
	}
	if runs != want || runSum != 6*want {
		t.Fatalf("run samples = (%d, %v), want (%d, %d)", runs, runSum, want, 6*want)
	}
}

// TestTrackerNilSafety: a nil registry yields a nil tracker whose whole
// surface is a no-op — the telemetry-off wiring path.
func TestTrackerNilSafety(t *testing.T) {
	tr := New(nil)
	if tr != nil {
		t.Fatal("New(nil) must return a nil tracker")
	}
	tr.Track(nil)
	tr.Consume([]apiserver.WatchEvent{{Type: apiserver.PodBound}})
	tr.Close()
	if tr.BindsObserved() != 0 || tr.RunsObserved() != 0 {
		t.Fatal("nil tracker reported observations")
	}
}

// TestTrackerUnclassifiedLabel: pods without a class land under the
// "unclassified" label, never an empty label value.
func TestTrackerUnclassifiedLabel(t *testing.T) {
	reg := telemetry.New()
	tr := New(reg)
	tr.Consume([]apiserver.WatchEvent{
		event(apiserver.PodBound, lifecyclePod("u", api.ClassUnspecified, api.PodPending, 0, time.Second, -1, -1)),
	})
	if got := reg.HistogramVec("lifecycle_queue_seconds", "class", nil).With("unclassified").Count(); got != 1 {
		t.Fatalf("unclassified queue samples = %d, want 1", got)
	}
	if got := reg.HistogramVec("lifecycle_queue_seconds", "class", nil).With("").Count(); got != 0 {
		t.Fatalf("empty-label series has %d samples, want 0", got)
	}
}
