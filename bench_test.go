// Benchmarks regenerating every table/figure of the paper's evaluation
// (§VI, Figs. 3-11), plus ablations of the scheduler's own design choices
// (usage-aware versus request-only accounting, SGX-last ordering, the
// metric window, the pass interval) and micro benchmarks of the paths
// every pass and every replayed job take.
//
// Each figure benchmark runs the corresponding experiment harness end to
// end (full simulated cluster replays for Figs. 7-11) and reports the
// headline quantities as benchmark metrics, so
//
//	go test -bench=Fig -benchmem
//
// regenerates the whole evaluation. `go run ./cmd/benchreport` prints the
// figures with their paper-vs-measured notes; a committed, pinned table of
// that comparison is ROADMAP.md item 9.
package sgxorch_test

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	sgxorch "github.com/sgxorch/sgxorch"
	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/deviceplugin"
	"github.com/sgxorch/sgxorch/internal/experiments"
	"github.com/sgxorch/sgxorch/internal/influxql"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/stats"
	"github.com/sgxorch/sgxorch/internal/telemetry"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

const benchSeed = 1

// BenchmarkFig3_MemoryUsageCDF regenerates Fig. 3 (CDF of maximal memory
// usage in the Borg trace).
func BenchmarkFig3_MemoryUsageCDF(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig3MemoryCDF(benchSeed, 20000)
	}
	c := stats.NewCDF(borg.NewGenerator(benchSeed).FullDay(20000).MemFractions())
	b.ReportMetric(100*c.At(0.1), "pct_below_0.1")
	b.ReportMetric(float64(len(fig.Series[0].Points)), "curve_points")
}

// BenchmarkFig4_DurationCDF regenerates Fig. 4 (CDF of job duration,
// bounded at 300 s).
func BenchmarkFig4_DurationCDF(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig4DurationCDF(benchSeed, 20000)
	}
	last := fig.Series[0].Points[len(fig.Series[0].Points)-1]
	b.ReportMetric(last.X, "max_duration_s")
}

// BenchmarkFig5_Concurrency regenerates Fig. 5 (concurrently running jobs
// over the first 24 h).
func BenchmarkFig5_Concurrency(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig5Concurrency(benchSeed, 10*time.Minute)
	}
	lo, hi := fig.Series[0].Points[0].Y, fig.Series[0].Points[0].Y
	for _, p := range fig.Series[0].Points {
		if p.Y < lo {
			lo = p.Y
		}
		if p.Y > hi {
			hi = p.Y
		}
	}
	b.ReportMetric(lo/1000, "min_kjobs")
	b.ReportMetric(hi/1000, "max_kjobs")
}

// BenchmarkFig6_StartupTime regenerates Fig. 6 (SGX process startup time
// vs requested EPC; paper: ~600 ms total at 128 MiB).
func BenchmarkFig6_StartupTime(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig6Startup(benchSeed, 60)
	}
	psw, alloc := fig.Series[0], fig.Series[1]
	n := len(psw.Points)
	b.ReportMetric(psw.Points[n-1].Y+alloc.Points[n-1].Y, "total_at_128MiB_ms")
	b.ReportMetric(psw.Points[0].Y, "psw_ms")
}

// BenchmarkFig7_EPCSizes regenerates Fig. 7 (pending-queue time series for
// simulated EPC sizes 32-256 MiB; paper drain times 4h47m / 2h47m / 1h22m
// / 1h00m).
func BenchmarkFig7_EPCSizes(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Fig7PendingQueue(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		last := 0.0
		for _, p := range s.Points {
			if p.Y > 1 {
				last = p.X
			}
		}
		b.ReportMetric(last, "drain_min_"+s.Name[:len(s.Name)-4])
	}
}

// BenchmarkFig8_WaitingTimeCDF regenerates Fig. 8 (waiting-time CDFs for
// SGX ratios 0-100%).
func BenchmarkFig8_WaitingTimeCDF(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Fig8WaitCDF(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		if s.Name == "Only SGX jobs" || s.Name == "No SGX jobs" {
			b.ReportMetric(s.Points[len(s.Points)-1].X, "max_wait_s_"+s.Name[:2])
		}
	}
}

// BenchmarkFig9_WaitByRequest regenerates Fig. 9 (mean waiting time by
// requested memory, spread vs binpack, 50% SGX split).
func BenchmarkFig9_WaitByRequest(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Fig9WaitByRequest(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	meanY := func(name string) float64 {
		for _, s := range fig.Series {
			if s.Name == name {
				sum := 0.0
				for _, p := range s.Points {
					sum += p.Y
				}
				if len(s.Points) == 0 {
					return 0
				}
				return sum / float64(len(s.Points))
			}
		}
		return 0
	}
	b.ReportMetric(meanY("binpack SGX"), "binpack_sgx_wait_s")
	b.ReportMetric(meanY("spread SGX"), "spread_sgx_wait_s")
}

// BenchmarkFig10_Turnaround regenerates Fig. 10 (total turnaround sums;
// paper: binpack 210 h SGX / 111 h standard, spread 275 h / 129 h, trace
// 94 h — we target the ratios).
func BenchmarkFig10_Turnaround(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Fig10Turnaround(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	get := func(name string) float64 {
		for _, s := range fig.Series {
			if s.Name == name {
				return s.Points[0].Y
			}
		}
		return 0
	}
	trace := get("Trace")
	b.ReportMetric(get("binpack SGX")/trace, "binpack_sgx_x_trace")
	b.ReportMetric(get("spread SGX")/trace, "spread_sgx_x_trace")
	b.ReportMetric(get("binpack SGX")/get("binpack Standard"), "sgx_over_std")
}

// BenchmarkFig11_LimitsEnforcement regenerates Fig. 11 (waiting times with
// malicious containers, limits enforced vs disabled).
func BenchmarkFig11_LimitsEnforcement(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Fig11Malicious(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	at600 := func(name string) float64 {
		for _, s := range fig.Series {
			if s.Name != name {
				continue
			}
			best := 0.0
			for _, p := range s.Points {
				if p.X <= 600 {
					best = p.Y
				}
			}
			return best
		}
		return 0
	}
	b.ReportMetric(at600("Limits enabled-50% EPC occupied"), "cdf600_enforced_pct")
	b.ReportMetric(at600("Limits disabled-50% EPC occupied"), "cdf600_attacked_pct")
}

// BenchmarkAblation_UsageAwareVsRequestOnly quantifies what the paper's
// usage-aware scheduling buys over request-only accounting: it charges a
// pod max(measured, requested) for one metric window after it starts and
// its measured peak alone after that, so over-declared requests stop
// holding capacity.
// The all-standard replay runs on a single 64 GiB node so that memory is
// contended: honest jobs advertise up to 1.6× their real usage (§VI-B),
// and only the usage-aware scheduler reclaims that headroom.
func BenchmarkAblation_UsageAwareVsRequestOnly(b *testing.B) {
	run := func(useMetrics bool) float64 {
		cfg := experiments.Paper(0)
		// One standard node; the SGX node is unused by the 0% SGX replay.
		cfg.Nodes = experiments.WithMaster(experiments.Fleet(1, 1, experiments.DefaultEPC, false))
		cfg.Scheduler.UseMetrics = useMetrics
		tb, err := experiments.NewTestbed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		trace := borg.NewGenerator(benchSeed).EvalSlice()
		res, err := tb.Replay(experiments.ReplayConfig{
			Trace:    trace,
			SGXRatio: 0,
			Seed:     benchSeed,
			Horizon:  24 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		return stats.Mean(res.WaitingSeconds(nil))
	}
	var aware, requestOnly float64
	for i := 0; i < b.N; i++ {
		aware = run(true)
		requestOnly = run(false)
	}
	b.ReportMetric(aware, "usage_aware_wait_s")
	b.ReportMetric(requestOnly, "request_only_wait_s")
}

// BenchmarkAblation_SGXLastOrdering compares the paper's binpack (SGX
// nodes last for standard jobs) against the SGX-oblivious least-requested
// baseline on a mixed workload: without the ordering, standard jobs
// squat on SGX nodes and SGX jobs queue.
func BenchmarkAblation_SGXLastOrdering(b *testing.B) {
	sgxTrue := true
	run := func(policy sgxorch.Policy) float64 {
		res, err := sgxorch.ReplayBorgTrace(sgxorch.ReplayOptions{
			Seed:     benchSeed,
			SGXRatio: 0.5,
			Policy:   policy,
		})
		if err != nil {
			b.Fatal(err)
		}
		return stats.Mean(res.WaitingSeconds(&sgxTrue))
	}
	var binpack, baseline float64
	for i := 0; i < b.N; i++ {
		binpack = run(sgxorch.PolicyBinpack)
		baseline = run(sgxorch.PolicyLeastRequested)
	}
	b.ReportMetric(binpack, "sgx_wait_binpack_s")
	b.ReportMetric(baseline, "sgx_wait_baseline_s")
}

// BenchmarkSchedulerPass measures one §IV scheduling pass over a loaded
// queue (microbenchmark of the scheduler's hot path).
func BenchmarkSchedulerPass(b *testing.B) {
	tb, err := experiments.NewTestbed(experiments.Paper(0))
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	trace := borg.NewGenerator(benchSeed).EvalSlice()
	// Submit everything at once so the queue is as deep as possible.
	for i, job := range trace.Jobs {
		pod := benchPod(job, i%2 == 0)
		if err := tb.Srv.CreatePod(pod); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Scheduler.ScheduleOnce()
	}
}

// BenchmarkClassifiedPass is BenchmarkSchedulerPass with the workload
// class registry attached and the whole backlog declaring classes, so
// every pod in every pass takes the per-class resolution path
// (slot lookup, profile swap, sampling/preemption gate overrides) and
// the per-class stats fold. Gating this next to BenchmarkSchedulerPass
// bounds the toll class routing adds to the scheduler's hot loop.
func BenchmarkClassifiedPass(b *testing.B) {
	cfg := experiments.Paper(0)
	cfg.Scheduler.Classes = core.NewClassRegistry(core.NewWorkloadClassifier(core.ClassifierConfig{}))
	tb, err := experiments.NewTestbed(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	trace := borg.NewGenerator(benchSeed).EvalSlice()
	tiers := []struct {
		class api.WorkloadClass
		prio  int32
	}{
		{api.ClassLatencySensitive, 100},
		{api.ClassBatch, 10},
		{api.ClassBestEffort, 0},
	}
	for i, job := range trace.Jobs {
		pod := benchPod(job, i%2 == 0)
		tier := tiers[i%len(tiers)]
		pod.Spec.Class = tier.class
		pod.Spec.Priority = tier.prio
		if err := tb.Srv.CreatePod(pod); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Scheduler.ScheduleOnce()
	}
}

// BenchmarkInstrumentedPass is BenchmarkSchedulerPass with the full
// telemetry stack attached — metrics registry, pass-trace ring, default
// detail sampling — so the pass pays every always-on instrumentation
// cost (pass/stage spans, per-class counter folds, the ring's span
// copy) and, on every 32nd pass, the detailed per-pod stage timings. Its budget is at most 5% time/op on top of
// BenchmarkSchedulerPass, the uninstrumented pass.
func BenchmarkInstrumentedPass(b *testing.B) {
	cfg := experiments.Paper(0)
	cfg.Scheduler.Telemetry = telemetry.New()
	cfg.Scheduler.Trace = telemetry.NewTraceRing(0)
	tb, err := experiments.NewTestbed(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	trace := borg.NewGenerator(benchSeed).EvalSlice()
	for i, job := range trace.Jobs {
		pod := benchPod(job, i%2 == 0)
		if err := tb.Srv.CreatePod(pod); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Scheduler.ScheduleOnce()
	}
}

// BenchmarkSchedulerPassScaling demonstrates that with the event-driven
// cluster cache a scheduling pass costs O(pending pods + nodes), not
// O(total pods): the pass over a cluster with 10000 bound pods and a
// handful of pending ones takes about as long as over one with 1000. (The
// arm keeps its historical "/incremental" name, which older benchmark
// records in git history use; the from-scratch rebuild it used to be
// compared with is no longer a production path — it is internal/core's
// test oracle.)
func BenchmarkSchedulerPassScaling(b *testing.B) {
	const nodes = 100
	for _, bound := range []int{1000, 10000} {
		clk := clock.NewSim()
		srv := apiserver.New(clk)
		db := tsdb.New(clk)
		alloc := resource.List{resource.Memory: 1 << 42, resource.CPU: 64000}
		for i := 0; i < nodes; i++ {
			if err := srv.RegisterNode(&api.Node{
				Name:        fmt.Sprintf("node-%03d", i),
				Capacity:    alloc.Clone(),
				Allocatable: alloc.Clone(),
				Ready:       true,
			}); err != nil {
				b.Fatal(err)
			}
		}
		sched, err := core.New(clk, srv, db, core.Config{
			Name: "bench", Policy: core.Binpack{}, UseMetrics: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < bound; p++ {
			name := fmt.Sprintf("bound-%06d", p)
			node := fmt.Sprintf("node-%03d", p%nodes)
			pod := &api.Pod{
				Name: name,
				Spec: api.PodSpec{
					SchedulerName: "bench",
					Containers: []api.Container{{
						Name:      "main",
						Resources: api.Requirements{Requests: resource.List{resource.Memory: 256 * resource.MiB}},
					}},
				},
			}
			if err := srv.CreatePod(pod); err != nil {
				b.Fatal(err)
			}
			if err := srv.Bind(name, node); err != nil {
				b.Fatal(err)
			}
			if err := srv.MarkRunning(name); err != nil {
				b.Fatal(err)
			}
			db.WriteNow(monitor.MeasurementMemory,
				tsdb.Tags{monitor.TagPod: name, monitor.TagNode: node}, float64(200*resource.MiB))
		}
		// Ten pending pods that never fit keep every pass doing full
		// filter + policy work without mutating the cluster.
		for p := 0; p < 10; p++ {
			pod := &api.Pod{
				Name: fmt.Sprintf("pending-%02d", p),
				Spec: api.PodSpec{
					SchedulerName: "bench",
					Containers: []api.Container{{
						Name:      "main",
						Resources: api.Requirements{Requests: resource.List{resource.Memory: 1 << 50}},
					}},
				},
			}
			if err := srv.CreatePod(pod); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("bound=%d/incremental", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.ScheduleOnce()
			}
		})
		sched.Close()
		db.Close()
	}
}

// BenchmarkSchedulerThroughputSharded measures real (wall-clock) bind
// throughput of 1/2/4/8 concurrent schedulers sharing one API server:
// each op drains a 1024-pod backlog through real-goroutine rounds, every
// bind passing the admission-checked conditional path. One op = one full
// drain, so time/op compares directly across shard counts and the
// binds/s metric reports absolute control-plane throughput. The server
// runs the asynchronous watch broker: commits append their event to the
// broker ring in O(1) and fan-out rides per-subscriber pumps, so the
// commit critical section no longer serializes behind N subscriber
// caches — the regression this benchmark caught when delivery was
// synchronous (binds/sec *degrading* as schedulers were added). The op
// includes QuiesceWatch: a drain does not count until every cache has
// absorbed the full event stream, so async delivery cannot cheat by
// deferring its fan-out cost past the timer.
func BenchmarkSchedulerThroughputSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const (
				nodes   = 128
				backlog = 1024
			)
			totalBound := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clk := clock.NewSim()
				srv := apiserver.New(clk, apiserver.WithAsyncWatch())
				alloc := resource.List{resource.Memory: 1 << 50, resource.CPU: 1 << 30}
				for n := 0; n < nodes; n++ {
					if err := srv.RegisterNode(&api.Node{
						Name:        fmt.Sprintf("node-%03d", n),
						Capacity:    alloc.Clone(),
						Allocatable: alloc.Clone(),
						Ready:       true,
					}); err != nil {
						b.Fatal(err)
					}
				}
				ss, err := core.NewSharded(clk, srv, nil, core.Config{
					Name: "bench", Policy: core.Binpack{}, MaxBindsPerPass: 64,
				}, shards, true)
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < backlog; p++ {
					pod := &api.Pod{
						Name: fmt.Sprintf("pod-%06d", p),
						Spec: api.PodSpec{
							Containers: []api.Container{{
								Name:      "main",
								Resources: api.Requirements{Requests: resource.List{resource.Memory: 256 * resource.MiB}},
							}},
						},
					}
					ss.Assign(pod)
					if err := srv.CreatePod(pod); err != nil {
						b.Fatal(err)
					}
				}
				// Collect the previous iteration's garbage (dead server,
				// 1024 retired pods) outside the timed region: the drain
				// itself allocates little, so a mark cycle inherited from
				// setup would otherwise run — write barriers and all —
				// inside the measurement and dominate single-P runs.
				runtime.GC()
				b.StartTimer()
				for srv.PendingCount() > 0 {
					totalBound += ss.RunRound()
				}
				srv.QuiesceWatch()
				b.StopTimer()
				ss.Close()
				srv.Close()
			}
			b.ReportMetric(float64(totalBound)/b.Elapsed().Seconds(), "binds/s")
		})
	}
}

// BenchmarkEventFanout measures pure commit+fan-out throughput: one
// mutator streams pod lifecycle events while W subscriber caches watch,
// sync vs async broker. Sync delivers every event to every subscriber
// inside the mutating call; async appends to the ring and lets the
// pumps batch. The events/s metric is the publisher's observed commit
// rate — the quantity the watch broker exists to protect — and each op
// quiesces, so delivery work is inside the measurement for both modes.
func BenchmarkEventFanout(b *testing.B) {
	for _, watchers := range []int{1, 8, 32} {
		for _, mode := range []string{"sync", "async"} {
			b.Run(fmt.Sprintf("watchers=%d/%s", watchers, mode), func(b *testing.B) {
				clk := clock.NewSim()
				var opts []apiserver.Option
				if mode == "async" {
					opts = append(opts, apiserver.WithAsyncWatch())
				}
				srv := apiserver.New(clk, opts...)
				defer srv.Close()
				alloc := resource.List{resource.Memory: 1 << 50, resource.CPU: 1 << 30}
				if err := srv.RegisterNode(&api.Node{
					Name: "node-0", Capacity: alloc.Clone(), Allocatable: alloc.Clone(), Ready: true,
				}); err != nil {
					b.Fatal(err)
				}
				var consumed atomic.Int64
				for w := 0; w < watchers; w++ {
					unsub := srv.SubscribeBatch(func(evs []apiserver.WatchEvent) {
						consumed.Add(int64(len(evs)))
					}, func(apiserver.Snapshot) {})
					defer unsub()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					name := fmt.Sprintf("pod-%09d", i)
					pod := &api.Pod{
						Name: name,
						Spec: api.PodSpec{
							Containers: []api.Container{{
								Name:      "main",
								Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.MiB}},
							}},
						},
					}
					if err := srv.CreatePod(pod); err != nil {
						b.Fatal(err)
					}
					if err := srv.Bind(name, "node-0"); err != nil {
						b.Fatal(err)
					}
					if err := srv.MarkSucceeded(name); err != nil {
						b.Fatal(err)
					}
				}
				srv.QuiesceWatch()
				b.StopTimer()
				if consumed.Load() == 0 {
					b.Fatal("watchers consumed nothing")
				}
				b.ReportMetric(float64(3*b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// benchPod builds a replay-style pod (the experiment harness keeps its
// own builder unexported).
func benchPod(job borg.Job, sgxJob bool) *api.Pod {
	requests := resource.List{resource.Memory: borg.StandardMemBytes(job.AssignedMemFrac)}
	kind := api.WorkloadStressVM
	alloc := borg.StandardMemBytes(job.MaxMemFrac)
	if sgxJob {
		requests = resource.List{
			resource.Memory:   16 * resource.MiB,
			resource.EPCPages: resource.PagesForBytes(borg.SGXMemBytes(job.AssignedMemFrac)),
		}
		kind = api.WorkloadStressEPC
		alloc = borg.SGXMemBytes(job.MaxMemFrac)
	}
	return &api.Pod{
		Name: "bench-job-" + strconv.FormatInt(job.ID, 10),
		Spec: api.PodSpec{
			SchedulerName: experiments.SchedulerName,
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: requests},
				Workload:  api.WorkloadSpec{Kind: kind, Duration: job.Duration, AllocBytes: alloc},
			}},
		},
	}
}

// BenchmarkGangSchedule drains the gang-scheduling backlog (8 gangs of
// 4 + solo churn on 8 nodes, 2 sharded schedulers sharing one gang
// director) end to end per op and reports gang outcomes. The op fails
// outright if the all-or-nothing invariant breaks or a permit leaks,
// so CI's one-iteration bench smoke doubles as a correctness tripwire.
func BenchmarkGangSchedule(b *testing.B) {
	var res experiments.GangExpResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.GangDrain(experiments.GangExpConfig{Seed: benchSeed, Shards: 2})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed || res.PartialPlacements != 0 || res.Violations != 0 || res.LeakedPermits != 0 {
			b.Fatalf("gang invariant broken: %+v", res)
		}
	}
	b.ReportMetric(float64(res.GangsCommitted), "gangs_committed")
	b.ReportMetric(float64(res.PermitTimeouts), "permit_timeouts")
	b.ReportMetric(res.MeanTimeToFullGang.Seconds(), "mean_to_full_gang_s")
	b.ReportMetric(res.MaxTimeToFullGang.Seconds(), "max_to_full_gang_s")
}

// BenchmarkInfluxQLListing1 measures the paper's Listing 1 query over a
// populated metrics database.
func BenchmarkInfluxQLListing1(b *testing.B) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	for node := 0; node < 4; node++ {
		for pod := 0; pod < 50; pod++ {
			for s := 0; s < 3; s++ {
				db.WriteNow(monitor.MeasurementEPC, tsdb.Tags{
					monitor.TagPod:  "pod-" + string(rune('a'+pod%26)) + string(rune('0'+pod/26)),
					monitor.TagNode: "node-" + string(rune('1'+node)),
				}, float64(pod*4096))
			}
		}
	}
	const listing1 = `SELECT SUM(epc) AS epc FROM (SELECT MAX(value) AS epc FROM "sgx/epc" WHERE value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename) GROUP BY nodename`
	q, err := influxql.Parse(listing1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := influxql.Run(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnclaveLifecycle measures the driver's enclave build/teardown
// path with limit enforcement (§V-D/§V-E).
func BenchmarkEnclaveLifecycle(b *testing.B) {
	driver := isgx.New(sgx.NewPackage(sgx.DefaultGeometry()))
	cg := &cgroup.Cgroup{Name: "bench"}
	if err := driver.IoctlSetLimit(cg, 4096); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := driver.OpenEnclave(cg, 4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Destroy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDevicePluginAllocate measures per-pod EPC page-item allocation
// (§V-A's per-page resource accounting).
func BenchmarkDevicePluginAllocate(b *testing.B) {
	plugin := deviceplugin.New(isgx.New(sgx.NewPackage(sgx.DefaultGeometry())))
	cg := &cgroup.Cgroup{Name: "bench"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plugin.Allocate(cg, 1000); err != nil {
			b.Fatal(err)
		}
		plugin.Deallocate(cg)
	}
}

// BenchmarkBorgEvalSlice measures trace generation (§VI-B input).
func BenchmarkBorgEvalSlice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := borg.NewGenerator(int64(i)).EvalSlice()
		if tr.Len() != borg.EvalJobCount {
			b.Fatal("bad trace")
		}
	}
	b.ReportMetric(float64(resource.PagesForBytes(borg.SGXMemBytes(borg.EvalMaxMemFraction))), "max_job_pages")
}

// BenchmarkExtension_SGX2DynamicEPC runs the §VI-G extension experiment:
// SGX 2 dynamic EPC allocation vs SGX 1 static commitment on the all-SGX
// replay (see internal/experiments.SGX2Ablation).
func BenchmarkExtension_SGX2DynamicEPC(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.SGX2Ablation(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		switch s.Name {
		case "SGX1 static":
			b.ReportMetric(s.Points[0].Y, "static_wait_s")
		case "SGX2 dynamic":
			b.ReportMetric(s.Points[0].Y, "dynamic_wait_s")
		}
	}
}

// BenchmarkAblation_MetricWindow sweeps Listing 1's sliding window (25 s
// in the paper) against the 10 s probe period.
func BenchmarkAblation_MetricWindow(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.WindowAblation(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		if s.Name != "mean wait" {
			continue
		}
		for _, p := range s.Points {
			if p.X == 25 {
				b.ReportMetric(p.Y, "wait_at_25s_window_s")
			}
		}
	}
}

// BenchmarkAblation_SchedulerInterval sweeps the §IV scheduling period.
func BenchmarkAblation_SchedulerInterval(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.IntervalAblation(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := fig.Series[0].Points
	b.ReportMetric(pts[0].Y, "wait_1s_interval_s")
	b.ReportMetric(pts[len(pts)-1].Y, "wait_30s_interval_s")
}
