package sgxorch

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens of the tests run (stack_scaling, alloc_ledger) from this run")

// scalingClasses rotates the job classes as the saturated benchmark
// workload does: latency-sensitive, batch, best-effort.
var scalingClasses = [3]struct {
	class    string
	priority int32
}{
	{ClassLatencySensitive, 100},
	{ClassBatch, 10},
	{ClassBestEffort, 0},
}

// scalingCluster is the saturated workload's shape grown k times: one
// master, 8k standard 64 GiB machines and 4k SGX 8 GiB machines, and the
// jobs of 3k Borg eval slices, every fourth an SGX job, all submitted at
// t = 0.
func scalingCluster(k int) ([]NodeSpec, []JobSpec) {
	nodes := []NodeSpec{{Name: "master", RAMBytes: 64 * GiB, CPUMillis: 8000, Master: true}}
	for i := 1; i <= 8*k; i++ {
		nodes = append(nodes, NodeSpec{Name: fmt.Sprintf("std-%d", i), RAMBytes: 64 * GiB, CPUMillis: 8000})
	}
	for i := 1; i <= 4*k; i++ {
		nodes = append(nodes, NodeSpec{Name: fmt.Sprintf("sgx-%d", i), RAMBytes: 8 * GiB, CPUMillis: 8000, SGX: true})
	}
	var jobs []JobSpec
	for s := 0; s < 3*k; s++ {
		for _, job := range GenerateBorgEvalSlice(1_000_003 + int64(s)).Jobs {
			i := len(jobs)
			spec := JobSpec{
				Name:     fmt.Sprintf("job-%05d", i),
				Duration: job.Duration,
				Priority: scalingClasses[i%3].priority,
				Class:    scalingClasses[i%3].class,
			}
			if i%4 == 3 {
				spec.MemoryRequestBytes = 16 * MiB
				spec.EPCRequestBytes = max(borg.SGXMemBytes(job.AssignedMemFrac), resource.EPCPageSize)
				spec.EPCUsageBytes = max(borg.SGXMemBytes(job.MaxMemFrac), resource.EPCPageSize)
			} else {
				spec.MemoryRequestBytes = max(borg.StandardMemBytes(job.AssignedMemFrac), resource.MiB)
				spec.MemoryUsageBytes = max(borg.StandardMemBytes(job.MaxMemFrac), resource.MiB)
			}
			jobs = append(jobs, spec)
		}
	}
	return nodes, jobs
}

// scalingRow is what one drain of the stack costs, in exact counts.
type scalingRow struct {
	nodes, jobs   int
	events        int64 // watch events published
	subscribers   int
	deliveries    int64 // events handed to subscriber callbacks
	points        int64 // TSDB points written
	series        int   // series the Prometheus exposition carries
	unschedulable int   // scheduling cycles that found no node
}

// runScaling drains one scalingCluster through the public Cluster and
// counts what the layers did. The cluster's audit, its first subscriber,
// must have been sent the whole stream and refused none of it. With
// countSeries it also writes the exposition after the drain and counts
// its series; the allocation ledger and the benchmark leave that cost out.
func runScaling(tb testing.TB, nodes []NodeSpec, jobs []JobSpec, countSeries bool) scalingRow {
	c, err := NewCluster(ClusterConfig{Nodes: nodes})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	var points int64
	defer c.tb.DB.OnWrite(func(string, tsdb.Tags, float64, time.Time) { points++ })()
	for _, spec := range jobs {
		if err := c.SubmitJob(spec); err != nil {
			tb.Fatal(err)
		}
	}
	if !c.WaitAll(48 * time.Hour) {
		tb.Fatalf("%d nodes: jobs still live after 48h", len(nodes))
	}
	ws := c.tb.Srv.WatchStats()
	if audit := ws.PerSubscriber[0]; audit.Delivered != ws.Published {
		tb.Fatalf("%d nodes: the audit was sent %d of %d events", len(nodes), audit.Delivered, ws.Published)
	}
	if v := c.Telemetry().Gauge("model_violations").Value(); v != 0 {
		tb.Fatalf("%d nodes: the reference model refused %v watch events", len(nodes), v)
	}
	row := scalingRow{
		nodes: len(nodes), jobs: len(jobs),
		events: ws.Published, subscribers: ws.Subscribers,
		points: points, unschedulable: c.SchedulerStats().Unschedulable,
	}
	if countSeries {
		var exposition strings.Builder
		if err := c.WritePrometheus(&exposition); err != nil {
			tb.Fatal(err)
		}
		row.series = strings.Count(exportedCatalogue(tb, exposition.String()), "\n")
	}
	for _, ss := range ws.PerSubscriber {
		row.deliveries += ss.Delivered
	}
	return row
}

func (r scalingRow) String() string {
	return fmt.Sprintf("nodes=%d jobs=%d events=%d subscribers=%d deliveries=%d points=%d series=%d unschedulable=%d",
		r.nodes, r.jobs, r.events, r.subscribers, r.deliveries, r.points, r.series, r.unschedulable)
}

// TestStackScaling is the stack's scaling table: the saturated workload's
// job mix at 13 and 49 nodes under the simulated clock, compared count
// for count with testdata/stack_scaling.golden (rewrite it with -update
// after an intended change, and read the diff). It logs each per-job
// figure with its growth exponent over the node count: 0 is flat, 1
// grows with the fleet. A kubelet watches only its own node, so the
// deliveries per event stay flat while the subscribers grow; no exported
// series is keyed by node or subscriber, so the series count is flat.
func TestStackScaling(t *testing.T) {
	var rows []scalingRow
	for _, k := range []int{1, 4} {
		nodes, jobs := scalingCluster(k)
		rows = append(rows, runScaling(t, nodes, jobs, true))
	}
	var got strings.Builder
	for _, r := range rows {
		fmt.Fprintln(&got, r)
	}
	const golden = "testdata/stack_scaling.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("scaling counts moved (-update rewrites %s)\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}

	lo, hi := rows[0], rows[1]
	for _, fig := range []struct {
		name string
		of   func(scalingRow) float64
	}{
		{"events/job", func(r scalingRow) float64 { return float64(r.events) / float64(r.jobs) }},
		{"subscribers", func(r scalingRow) float64 { return float64(r.subscribers) }},
		{"deliveries/event", func(r scalingRow) float64 { return float64(r.deliveries) / float64(r.events) }},
		{"tsdb points/job", func(r scalingRow) float64 { return float64(r.points) / float64(r.jobs) }},
		{"series", func(r scalingRow) float64 { return float64(r.series) }},
		{"unschedulable/job", func(r scalingRow) float64 { return float64(r.unschedulable) / float64(r.jobs) }},
	} {
		a, b := fig.of(lo), fig.of(hi)
		t.Logf("%-18s %3d nodes %8.2f   %3d nodes %8.2f   exponent %+.2f",
			fig.name, lo.nodes, a, hi.nodes, b, math.Log(b/a)/math.Log(float64(hi.nodes)/float64(lo.nodes)))
	}
	perEvent := func(r scalingRow) float64 { return float64(r.deliveries) / float64(r.events) }
	if a, b := perEvent(lo), perEvent(hi); math.Abs(b-a) > 0.02*a {
		t.Errorf("deliveries per event %.2f at %d nodes, %.2f at %d: a kubelet hears other nodes' events",
			a, lo.nodes, b, hi.nodes)
	}
	if lo.series != hi.series {
		t.Errorf("the exposition carries %d series at %d nodes, %d at %d: a series is kept per node or subscriber",
			lo.series, lo.nodes, hi.series, hi.nodes)
	}
}

// BenchmarkStackScaling is TestStackScaling's host-time twin at 13, 49
// and 193 nodes: one iteration drains the whole job mix, and the figures
// are per job — host time and heap allocations. It is advisory: the
// sim-clock counts are TestStackScaling's.
func BenchmarkStackScaling(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("nodes=%d", 1+12*k), func(b *testing.B) {
			nodes, jobs := scalingCluster(k)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			b.ResetTimer()
			for range b.N {
				runScaling(b, nodes, jobs, false)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			n := float64(b.N * len(jobs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/job")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/job")
		})
	}
}
