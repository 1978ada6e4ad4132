package sgxorch

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
)

// TestLifecycleHistogramsMatchEventStream is the enabled-registry
// property test: across a random workload, the lifecycle histograms'
// totals must equal the counts derivable from the watch event stream
// itself — every PodBound event is exactly one submit→bind sample, and
// every transition to Running exactly one bind→run sample per
// scheduling cycle (a preemption requeue back to Pending starts a new
// cycle). An independent subscriber on the same event ring derives the
// expected counts; the tracker is never consulted for them.
func TestLifecycleHistogramsMatchEventStream(t *testing.T) {
	c, err := NewCluster(ClusterConfig{SchedulerInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var observedBinds, observedRuns int
	runningSeen := make(map[string]bool)
	unsub := c.st.Srv.SubscribeBatch(func(evs []apiserver.WatchEvent) {
		for _, ev := range evs {
			switch ev.Type {
			case apiserver.PodBound:
				observedBinds++
			case apiserver.PodUpdated:
				switch ev.Pod.Status.Phase {
				case api.PodRunning:
					if !runningSeen[ev.Pod.Name] {
						runningSeen[ev.Pod.Name] = true
						observedRuns++
					}
				case api.PodPending: // preemption requeue: a new cycle begins
					delete(runningSeen, ev.Pod.Name)
				case api.PodSucceeded, api.PodFailed:
					delete(runningSeen, ev.Pod.Name)
				}
			}
		}
	}, nil)
	defer unsub()

	rng := rand.New(rand.NewSource(42))
	classes := []string{"", ClassLatencySensitive, ClassBatch, ClassBestEffort}
	for wave := 0; wave < 5; wave++ {
		for i := 0; i < 8; i++ {
			mem := int64(rng.Intn(12)+1) * GiB
			if rng.Intn(10) == 0 {
				mem = 1 << 50 // never schedulable: exercises the non-bound path
			}
			job := JobSpec{
				Name:               fmt.Sprintf("job-%d-%d", wave, i),
				Duration:           time.Duration(rng.Intn(40)+5) * time.Second,
				Priority:           int32(rng.Intn(3) * 10),
				MemoryRequestBytes: mem,
				Class:              classes[rng.Intn(len(classes))],
			}
			if err := c.SubmitJob(job); err != nil {
				t.Fatal(err)
			}
		}
		c.AdvanceTime(time.Duration(rng.Intn(20)+5) * time.Second)
	}
	c.AdvanceTime(2 * time.Minute)

	if observedBinds == 0 || observedRuns == 0 {
		t.Fatalf("workload too gentle: binds=%d runs=%d", observedBinds, observedRuns)
	}

	reg := c.Telemetry()
	labels := []string{"unclassified", ClassLatencySensitive, ClassBatch, ClassBestEffort}
	sumCounts := func(name string) int64 {
		var total int64
		for _, l := range labels {
			total += reg.HistogramVec(name, "class", nil).With(l).Count()
		}
		return total
	}
	if got := sumCounts("lifecycle_queue_seconds"); got != int64(observedBinds) {
		t.Fatalf("queue histogram total = %d, event-derived binds = %d", got, observedBinds)
	}
	if got := sumCounts("lifecycle_startup_seconds"); got != int64(observedRuns) {
		t.Fatalf("startup histogram total = %d, event-derived runs = %d", got, observedRuns)
	}
	if got := sumCounts("lifecycle_submit_to_run_seconds"); got != int64(observedRuns) {
		t.Fatalf("submit-to-run histogram total = %d, event-derived runs = %d", got, observedRuns)
	}
	binds, runs := c.LifecycleStats()
	if binds != int64(observedBinds) || runs != int64(observedRuns) {
		t.Fatalf("LifecycleStats = (%d, %d), event-derived = (%d, %d)", binds, runs, observedBinds, observedRuns)
	}
	// In the default synchronous watch mode nothing may be lost.
	if got := reg.Counter("lifecycle_resyncs_total").Value(); got != 0 {
		t.Fatalf("lifecycle_resyncs_total = %d, want 0 in synchronous mode", got)
	}
}

// TestClusterSelfScrapeQueryableViaInfluxQL drives the full
// observability loop: run a workload, let the registry self-scrape into
// the TSDB on the monitoring cadence, and read a per-class p99 back out
// through the InfluxQL engine — the quickstart query from the README.
func TestClusterSelfScrapeQueryableViaInfluxQL(t *testing.T) {
	c, err := NewCluster(ClusterConfig{SchedulerInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 6; i++ {
		if err := c.SubmitJob(JobSpec{
			Name:               fmt.Sprintf("job-%d", i),
			Duration:           30 * time.Second,
			MemoryRequestBytes: 2 * GiB,
			Class:              ClassBatch,
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.AdvanceTime(90 * time.Second) // several scrape intervals

	res, err := c.Query(`SELECT MAX(value) FROM "self/lifecycle_queue_seconds" WHERE quantile = '0.99' GROUP BY class`)
	if err != nil {
		t.Fatal(err)
	}
	byClass := res.ValueByTag("class")
	if v, ok := byClass["batch"]; !ok || v < 0 {
		t.Fatalf("no p99 row for class=batch: %+v", res.Rows)
	}

	// Pass traces accumulated with strictly increasing sequence numbers.
	traces := c.PassTraces()
	if len(traces) == 0 {
		t.Fatal("no pass traces retained")
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].Seq <= traces[i-1].Seq {
			t.Fatalf("trace Seq not increasing: %d after %d", traces[i].Seq, traces[i-1].Seq)
		}
	}

	// The Prometheus exposition carries scheduler, apiserver, lifecycle
	// and folded facade series.
	var sb strings.Builder
	if err := c.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"scheduler_passes_total",
		"apiserver_bind_latency_seconds_count",
		`lifecycle_queue_seconds_bucket{class="batch"`,
		"cluster_bind_attempts",
		"cluster_scheduler_bound",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// TestClusterTelemetryDisabled: DisableTelemetry yields a nil registry
// and every observability entry point degrades to a safe no-op.
func TestClusterTelemetryDisabled(t *testing.T) {
	c, err := NewCluster(ClusterConfig{DisableTelemetry: true, SchedulerInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Telemetry() != nil {
		t.Fatal("disabled cluster must report a nil registry")
	}
	if err := c.SubmitJob(JobSpec{Name: "job", Duration: 10 * time.Second, MemoryRequestBytes: GiB}); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(30 * time.Second)
	if traces := c.PassTraces(); traces != nil {
		t.Fatalf("disabled cluster returned %d traces", len(traces))
	}
	var sb strings.Builder
	if err := c.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("disabled exposition: %q err=%v", sb.String(), err)
	}
	if binds, runs := c.LifecycleStats(); binds != 0 || runs != 0 {
		t.Fatalf("disabled lifecycle stats = (%d, %d)", binds, runs)
	}
	// The scheduler still works.
	st, err := c.JobStatus("job")
	if err != nil || st.Phase == "Pending" {
		t.Fatalf("job status = %+v err=%v", st, err)
	}
}
