package sgxorch

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/model"
)

// TestLifecycleHistogramsMatchEventStream is the enabled-registry
// property test: across a random workload, the lifecycle histograms'
// totals must equal the counts derivable from the watch event stream
// itself — every PodBound event is exactly one submit→bind sample, and
// every transition to Running exactly one bind→run sample per
// scheduling cycle (a preemption requeue back to Pending starts a new
// cycle). The reference model (internal/model), subscribed on the same
// event ring, derives the expected counts; the tracker is never
// consulted for them.
func TestLifecycleHistogramsMatchEventStream(t *testing.T) {
	c, err := NewCluster(ClusterConfig{SchedulerInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The model joins after the nodes registered, so it knows no node's
	// allocatable; the jobs request no EPC from a guarded server, so no
	// capacity rule reaches what it does not know.
	m := model.New(apiserver.AdmitGuarded)
	var refused error
	unsub := c.tb.Srv.SubscribeBatch(func(evs []apiserver.WatchEvent) {
		for _, ev := range evs {
			if err := m.Apply(ev); err != nil && refused == nil {
				refused = err
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

	if refused != nil {
		t.Fatalf("the reference model refused the stream: %v", refused)
	}
	var observedBinds, observedRuns int
	for _, tally := range m.ByClass {
		observedBinds += tally.Binds
		observedRuns += tally.Runs
	}
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
	// The tracker reads the audit's delivery and has no subscription of
	// its own to fall behind on: the stream's subscribers are the
	// kubelets, the cache, the audit and this test's model.
	if got, want := c.tb.Srv.WatchStats().Subscribers, len(c.Nodes())+3; got != want {
		t.Fatalf("watch subscribers = %d, want %d (a kubelet per node, the cache, the audit, the test's model)", got, want)
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

	// The Prometheus exposition carries scheduler, apiserver and
	// lifecycle series.
	var sb strings.Builder
	if err := c.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"scheduler_pass_duration_seconds_count",
		"apiserver_bind_latency_seconds_count",
		`lifecycle_queue_seconds_bucket{class="batch"`,
		"apiserver_bind_bound",
		"scheduler_bound_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// TestTelemetryExportsEachCountOnce is the referee for the export
// surface: every count the accessors report appears in one registry
// export, under the prefix of the component that counts it, and no
// series restates another under a cluster_ name. The workload preempts,
// commits a gang, has a bind refused and leaves a job queued mid-run, so
// no check compares zero with zero alone, and no BindStats gauge equals
// the bind-latency histogram's count by coincidence.
func TestTelemetryExportsEachCountOnce(t *testing.T) {
	c, err := NewCluster(ClusterConfig{SchedulerInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	submit := func(spec JobSpec) {
		t.Helper()
		if err := c.SubmitJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Four hour-long hogs commit most of both SGX nodes' EPC; an urgent
	// enclave job then preempts one, which re-queues.
	for _, name := range []string{"hog-a", "hog-b", "hog-c", "hog-d"} {
		submit(JobSpec{Name: name, Duration: time.Hour, EPCRequestBytes: 43 * MiB})
	}
	c.AdvanceTime(15 * time.Second)
	// A scheduler racing on a stale view binds a pod that is bound already.
	hog, err := c.JobStatus("hog-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.tb.Srv.Bind("hog-a", hog.Node); err == nil {
		t.Fatal("a second bind of hog-a was accepted")
	}
	submit(JobSpec{Name: "urgent", Duration: 2 * time.Minute, EPCRequestBytes: 24 * MiB, Priority: 10})
	for _, name := range []string{"gang-0", "gang-1"} {
		submit(JobSpec{
			Name: name, Duration: time.Minute, MemoryRequestBytes: GiB,
			Gang: "g", GangMinMember: 2, Class: ClassBatch,
		})
	}
	c.AdvanceTime(10 * time.Second)
	checkExportsEachCountOnce(t, c, true)
	if !c.WaitAll(4 * time.Hour) {
		t.Fatal("workload did not drain")
	}
	checkExportsEachCountOnce(t, c, false)
	if ss, gs := c.SchedulerStats(), c.GangStats(); ss.Preemptions == 0 || gs.Commits == 0 {
		t.Fatalf("workload too gentle: preemptions=%d gang commits=%d", ss.Preemptions, gs.Commits)
	}
}

// checkExportsEachCountOnce compares one export with the accessors;
// queued says the scheduler's queue must be non-empty.
func checkExportsEachCountOnce(t *testing.T, c *Cluster, queued bool) {
	t.Helper()
	c.Telemetry().Collect()
	var sb strings.Builder
	if err := c.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	kinds := make(map[string]string) // family → counter, gauge or histogram
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, kind, _ := strings.Cut(rest, " ")
			kinds[family] = kind
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "cluster_") {
			t.Errorf("series %q restates a component's count", line)
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		if _, dup := series[line[:cut]]; dup {
			t.Errorf("series %s exported twice", line[:cut])
		}
		series[line[:cut]] = v
	}
	// sum adds a family's series over their labels.
	sum := func(name string) int64 {
		var total float64
		for k, v := range series {
			if k == name || strings.HasPrefix(k, name+"{") {
				total += v
			}
		}
		return int64(total)
	}
	// A counter or gauge restates a histogram of its own component when
	// it reads the histogram's count: the histogram already exports that
	// count.
	for family, kind := range kinds {
		if kind == "histogram" {
			continue
		}
		component, _, _ := strings.Cut(family, "_")
		for hist, hkind := range kinds {
			if n := sum(family); hkind == "histogram" && strings.HasPrefix(hist, component+"_") && n > 0 && n == sum(hist+"_count") {
				t.Errorf("%s %s = %d restates histogram %s's count", kind, family, n, hist)
			}
		}
	}
	// Only a tracker subscribed on its own (Track) can resync; the
	// product's rides the audit's delivery.
	if _, ok := kinds["lifecycle_resyncs_total"]; ok {
		t.Error("lifecycle_resyncs_total exported: the product's tracker has a subscription of its own")
	}
	want := func(name string, got, accessor int64) {
		t.Helper()
		if got != accessor {
			t.Errorf("%s = %d, accessor reads %d", name, got, accessor)
		}
	}

	ss := c.SchedulerStats()
	want("scheduler_pass_duration_seconds_count", sum("scheduler_pass_duration_seconds_count"), int64(ss.Passes))
	want("scheduler_bound_total", sum("scheduler_bound_total"), int64(ss.Bound))
	want("scheduler_unschedulable_total", sum("scheduler_unschedulable_total"), int64(ss.Unschedulable))
	want("scheduler_preemptions_total", sum("scheduler_preemptions_total"), int64(ss.Preemptions))
	want("scheduler_victims_total", sum("scheduler_victims_total"), int64(ss.Victims))

	bs := c.tb.Srv.BindStats()
	want("apiserver_bind_latency_seconds_count", sum("apiserver_bind_latency_seconds_count"), bs.Attempts)
	want("apiserver_bind_bound", sum("apiserver_bind_bound"), bs.Bound)
	want("apiserver_bind_rejected_pod_state", sum("apiserver_bind_rejected_pod_state"), bs.RejectedPodState)
	want("apiserver_bind_rejected_node_state", sum("apiserver_bind_rejected_node_state"), bs.RejectedNodeState)
	want("apiserver_bind_rejected_capacity", sum("apiserver_bind_rejected_capacity"), bs.RejectedCapacity)

	ws := c.tb.Srv.WatchStats()
	want("watch_published", sum("watch_published"), ws.Published)
	want("watch_evicted", sum("watch_evicted"), ws.Evicted)
	want("watch_subscribers", sum("watch_subscribers"), int64(ws.Subscribers))

	gs := c.GangStats()
	want("gang_commits", sum("gang_commits"), gs.Commits)
	want("gang_timeouts", sum("gang_timeouts"), gs.Timeouts)
	if v, ok := series["model_violations"]; !ok || v != 0 {
		t.Errorf("model_violations = %v (exported %v), want 0: the reference model refused an event", v, ok)
	}

	depth := c.tb.Srv.PendingCountByClass(schedulerName)
	var queue int
	for _, class := range api.Classes {
		name := fmt.Sprintf("apiserver_pending_depth{class=%q}", class.Label())
		got, ok := series[name]
		if !ok {
			t.Errorf("%s not exported", name)
		}
		want(name, int64(got), int64(depth[class]))
		queue += depth[class]
	}
	if queued != (queue > 0) {
		t.Fatalf("queued jobs = %d, want queued=%v", queue, queued)
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
