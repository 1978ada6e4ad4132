package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/sgxorch/sgxorch"
	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/influxql"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// Raw per-rep readings that are not reported themselves but feed the
// derived layer metrics.
const (
	layerPeakPending   = "raw.peak_pending"
	layerSchedBound    = "raw.sched_bound"
	layerUnschedulable = "raw.unschedulable"
	layerPromWriteUS   = "telemetry.prom_write_us"
)

// readServerCounters folds the API server's own accounting into the rep.
func readServerCounters(rc *repCtx, srv *apiserver.Server) {
	bs, ws := srv.BindStats(), srv.WatchStats()
	rc.addLayer("apiserver.bind_attempts", float64(bs.Attempts))
	rc.addLayer("apiserver.bind_bound", float64(bs.Bound))
	rc.addLayer("apiserver.bind_rejected_capacity", float64(bs.RejectedCapacity))
	rc.addLayer("apiserver.events", float64(ws.Published))
	rc.addLayer("watch.published", float64(ws.Published))
	rc.maxLayer("watch.subscribers", float64(ws.Subscribers))
	for _, sub := range ws.PerSubscriber {
		rc.addLayer("watch.deliveries", float64(sub.Delivered))
		rc.addLayer("watch.batches", float64(sub.Batches))
		rc.addLayer("watch.resyncs", float64(sub.Resyncs))
		rc.addLayer("watch.dropped", float64(sub.Dropped))
		rc.maxLayer("watch.max_lag", float64(sub.MaxLag))
	}
}

// readSchedulerCounters folds Scheduler.Stats into the rep.
func readSchedulerCounters(rc *repCtx, st core.Stats) {
	rc.addLayer("core.passes", float64(st.Passes))
	rc.addLayer(layerSchedBound, float64(st.Bound))
	rc.addLayer(layerUnschedulable, float64(st.Unschedulable))
	rc.addLayer("core.preemptions", float64(st.Preemptions))
	rc.addLayer("core.victims", float64(st.Victims))
	rc.addLayer("core.conflicts", float64(st.Conflicts))
	rc.addLayer("core.sampled", float64(st.Sampled))
	rc.addLayer("core.held", float64(st.Held))
}

// readStackCounters reads everything a finished simulated stack counted.
func readStackCounters(rc *repCtx, st *simStack) {
	readServerCounters(rc, st.srv)
	readSchedulerCounters(rc, st.sched.Stats())
	rc.maxLayer(layerPeakPending, float64(st.peakPending))
	rc.addLayer("tsdb.series", float64(st.db.SeriesCount()))
	selfSeries := 0
	for _, m := range st.db.Measurements() {
		if strings.HasPrefix(m, telemetry.SelfScrapeMeasurementPrefix) {
			selfSeries += len(st.db.Series(m))
		}
	}
	rc.addLayer("telemetry.series", float64(selfSeries))
	rc.addLayer("monitor.samples", float64(st.monitorPoints))
	rc.addLayer("tsdb.points_written", float64(st.monitorPoints+st.selfPoints))
	if st.reg != nil {
		t0 := time.Now()
		// Discard cannot fail; an encoding error would be a registry bug
		// that the repo's own tests cover.
		_ = st.reg.WritePrometheus(io.Discard)
		rc.addLayer(layerPromWriteUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
}

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics measured with tracing off that exist on
// every workload; BENCHMARK.json's end_to_end mirrors this table and a
// test holds the two together.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.10},
}

// scopedDefs are the end-to-end metrics that exist on some workloads
// only: query latency on metrics_rw, simulated times on the two
// simulated-cluster workloads. The report prints them beside the others;
// the driver's contract wants every end_to_end metric on every workload
// and never 0, so in BENCHMARK.json they sit with the per-layer metrics, 0
// where they do not apply. The simulated times carry no bound: they are
// exact for a seed, and -selfcheck holds them to equality instead.
var scopedDefs = []metricDef{
	{"query_p50_us", "us", "lower", 0.10},
	{"query_p99_us", "us", "lower", 0.15},
	{"sim_wait_p50_s", simSeconds, "lower", 0},
	{"sim_wait_p99_s", simSeconds, "lower", 0},
	{"sim_ls_wait_p99_s", simSeconds, "lower", 0},
	{"sim_makespan_s", simSeconds, "lower", 0},
}

// simSeconds is the unit of simulated time, kept apart from host seconds.
const simSeconds = "sim_s"

// layerDefs are the traced run's metrics, one block per package.
var layerDefs = []metricDef{
	{Name: "apiserver.creates", Unit: "count", Better: "lower"},
	{Name: "apiserver.create_busy_s", Unit: "s", Better: "lower"},
	{Name: "apiserver.create_p50_us", Unit: "us", Better: "lower"},
	{Name: "apiserver.bind_attempts", Unit: "count", Better: "lower"},
	{Name: "apiserver.bind_bound", Unit: "count", Better: "higher"},
	{Name: "apiserver.bind_rejected_capacity", Unit: "count", Better: "lower"},
	{Name: "apiserver.bind_success_ratio", Unit: "ratio", Better: "higher"},
	{Name: "apiserver.events", Unit: "count", Better: "lower"},
	{Name: "apiserver.commit_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "apiserver.pending_visit_us", Unit: "us", Better: "lower"},

	{Name: "watch.published", Unit: "count", Better: "lower"},
	{Name: "watch.deliveries", Unit: "count", Better: "lower"},
	{Name: "watch.batches", Unit: "count", Better: "lower"},
	{Name: "watch.mean_batch", Unit: "count", Better: "higher"},
	{Name: "watch.max_lag", Unit: "count", Better: "lower"},
	{Name: "watch.resyncs", Unit: "count", Better: "lower"},
	{Name: "watch.dropped", Unit: "count", Better: "lower"},
	{Name: "watch.subscribers", Unit: "count", Better: "lower"},
	{Name: "watch.deliver_ns_per_event_sub", Unit: "ns", Better: "lower"},
	{Name: "watch.quiesce_ms", Unit: "ms", Better: "lower"},

	{Name: "core.passes", Unit: "count", Better: "lower"},
	{Name: "core.pass_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.pass_share", Unit: "ratio", Better: "lower"},
	{Name: "core.pass_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.pass_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.pass_idle_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.binds_per_pass", Unit: "count", Better: "higher"},
	{Name: "core.unschedulable_per_pass", Unit: "count", Better: "lower"},
	{Name: "core.preemptions", Unit: "count", Better: "lower"},
	{Name: "core.victims", Unit: "count", Better: "lower"},
	{Name: "core.conflicts", Unit: "count", Better: "lower"},
	{Name: "core.sampled", Unit: "count", Better: "lower"},
	{Name: "core.held", Unit: "count", Better: "lower"},
	{Name: "core.round_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.round_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cache_apply_ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "kubelet.timers", Unit: "count", Better: "lower"},
	{Name: "kubelet.timer_busy_s", Unit: "s", Better: "lower"},
	{Name: "kubelet.timer_share", Unit: "ratio", Better: "lower"},

	{Name: "monitor.scrapes", Unit: "count", Better: "lower"},
	{Name: "monitor.scrape_busy_s", Unit: "s", Better: "lower"},
	{Name: "monitor.scrape_share", Unit: "ratio", Better: "lower"},
	{Name: "monitor.scrape_p50_us", Unit: "us", Better: "lower"},
	{Name: "monitor.samples", Unit: "count", Better: "lower"},
	{Name: "monitor.ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "monitor.windowmax_series", Unit: "count", Better: "lower"},
	{Name: "monitor.windowmax_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "monitor.windowmax_lookup_ns", Unit: "ns", Better: "lower"},

	{Name: "tsdb.points_written", Unit: "count", Better: "lower"},
	{Name: "tsdb.series", Unit: "count", Better: "lower"},
	{Name: "tsdb.write_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "tsdb.scan_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.sweep_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.swept_series", Unit: "count", Better: "lower"},

	{Name: "influxql.parse_us", Unit: "us", Better: "lower"},
	{Name: "influxql.queries", Unit: "count", Better: "lower"},
	{Name: "influxql.busy_s", Unit: "s", Better: "lower"},
	{Name: "influxql.listing1_p50_us", Unit: "us", Better: "lower"},
	{Name: "influxql.range_p50_us", Unit: "us", Better: "lower"},

	{Name: "telemetry.scrapes", Unit: "count", Better: "lower"},
	{Name: "telemetry.scrape_busy_s", Unit: "s", Better: "lower"},
	{Name: "telemetry.scrape_p50_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.series", Unit: "count", Better: "lower"},
	{Name: "telemetry.prom_write_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.toll_share", Unit: "ratio", Better: "lower"},
	{Name: "lifecycle.consume_ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "borg.evalslice_us", Unit: "us", Better: "lower"},
	{Name: "borg.jobs", Unit: "count", Better: "higher"},
	{Name: "clock.steps", Unit: "count", Better: "lower"},
	{Name: "clock.step_busy_s", Unit: "s", Better: "lower"},

	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines_end", Unit: "count", Better: "lower"},

	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// perLayerDefs is BENCHMARK.json's per_layer list: the scoped end-to-end
// metrics first, then the layers.
func perLayerDefs() []metricDef {
	var out []metricDef
	for _, d := range scopedDefs {
		d.Bound = 0
		out = append(out, d)
	}
	return append(out, layerDefs...)
}

// runtimeSample reads the GC's share of the process's CPU time.
type runtimeSample struct{ gcCPU, totalCPU, cycles float64 }

func readRuntime() runtimeSample {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	return runtimeSample{samples[0].Value.Float64(), samples[1].Value.Float64(), float64(samples[2].Value.Uint64())}
}

// tracedRun is everything the traced run gathered for one workload.
type tracedRun struct {
	untraced runResult // the reference reps, tracing off
	traced   runResult
	noTelem  *runResult // cluster_saturated with DisableTelemetry, else nil
	spans    []span
	cap      *capture
	rtBefore runtimeSample
	rtAfter  runtimeSample
}

// layerMetrics turns a traced run into the per-layer report. Counts and
// busy times are per rep, medians over the traced reps; percentiles are
// pooled over them. A metric of a layer the workload does not reach
// stays 0.
func layerMetrics(tr tracedRun) (map[string]float64, error) {
	out := make(map[string]float64, len(layerDefs)+len(scopedDefs))
	for _, d := range perLayerDefs() {
		out[d.Name] = 0
	}
	reps := tr.traced.reps
	if len(reps) == 0 {
		return out, fmt.Errorf("no traced reps")
	}

	// Spans by rep; rep 0 is the warm-up.
	byRep := make(map[int32][]span)
	for _, s := range tr.spans {
		if s.Rep >= 1 && int(s.Rep) <= len(reps) {
			byRep[s.Rep] = append(byRep[s.Rep], s)
		}
	}
	perRep := make([]spanIndex, len(reps))
	for i := range reps {
		// selfTimes indexes by id, so each rep's spans are renumbered.
		perRep[i] = indexSpans(renumber(byRep[int32(i+1)]))
	}
	repMedian := func(f func(i int) float64) float64 {
		xs := make([]float64, len(reps))
		for i := range reps {
			xs[i] = f(i)
		}
		return median(xs)
	}
	// pooled gathers the durations of the named spans over every rep.
	pooled := func(names ...string) (durUS []float64) {
		for _, idx := range perRep {
			for _, name := range names {
				durUS = append(durUS, idx.get(name).durUS...)
			}
		}
		return durUS
	}
	// group is the per-rep count, busy time and share of the wall of a
	// group of span names.
	group := func(names ...string) (count, busy, share float64) {
		sum := func(i int, f func(*spanStats) float64) float64 {
			total := 0.0
			for _, name := range names {
				total += f(perRep[i].get(name))
			}
			return total
		}
		busyOf := func(i int) float64 { return sum(i, (*spanStats).busySeconds) }
		count = repMedian(func(i int) float64 { return sum(i, func(s *spanStats) float64 { return float64(s.count) }) })
		busy = repMedian(busyOf)
		share = repMedian(func(i int) float64 { return ratio(busyOf(i), reps[i].wall.Seconds()) })
		return
	}
	p99 := func(xs []float64) float64 { return quantile(sorted(xs), 0.99) }
	layer := func(name string) float64 {
		return repMedian(func(i int) float64 { return reps[i].layer[name] })
	}

	// Counters the layers keep themselves.
	for _, name := range []string{
		"apiserver.bind_attempts", "apiserver.bind_bound", "apiserver.bind_rejected_capacity", "apiserver.events",
		"watch.published", "watch.deliveries", "watch.batches", "watch.max_lag", "watch.resyncs", "watch.dropped", "watch.subscribers",
		"core.passes", "core.preemptions", "core.victims", "core.conflicts", "core.sampled", "core.held",
		"monitor.samples", "monitor.windowmax_series", "tsdb.points_written", "tsdb.series",
		"telemetry.series", layerPromWriteUS,
	} {
		out[name] = layer(name)
	}
	out["apiserver.bind_success_ratio"] = ratio(out["apiserver.bind_bound"], out["apiserver.bind_attempts"])
	out["watch.mean_batch"] = ratio(out["watch.deliveries"], out["watch.batches"])
	out["core.binds_per_pass"] = ratio(layer(layerSchedBound), out["core.passes"])
	out["core.unschedulable_per_pass"] = ratio(layer(layerUnschedulable), out["core.passes"])

	// Spans.
	out["apiserver.creates"], out["apiserver.create_busy_s"], _ = group(spanCreate)
	out["apiserver.create_p50_us"] = median(pooled(spanCreate))
	passes := pooled(spanPass, spanPassIdle)
	_, out["core.pass_busy_s"], out["core.pass_share"] = group(spanPass, spanPassIdle)
	out["core.pass_p50_us"], out["core.pass_p99_us"] = median(passes), p99(passes)
	out["core.pass_idle_p50_us"] = median(pooled(spanPassIdle))
	if rounds := pooled(spanRound); len(rounds) > 0 {
		out["core.round_p50_ms"], out["core.round_p99_ms"] = median(rounds)/1e3, p99(rounds)/1e3
		// The members of a round pass concurrently: their busy times add
		// up to more than the wall they share, so the share is the rounds'.
		_, _, out["core.pass_share"] = group(spanRound)
	}
	out["watch.quiesce_ms"] = median(pooled(spanQuiesce)) / 1e3
	out["monitor.scrapes"], out["monitor.scrape_busy_s"], out["monitor.scrape_share"] = group(spanHeapster, spanProbe)
	out["monitor.scrape_p50_us"] = median(pooled(spanHeapster, spanProbe))
	out["monitor.ns_per_sample"] = ratio(out["monitor.scrape_busy_s"]*1e9, out["monitor.samples"])
	out["telemetry.scrapes"], out["telemetry.scrape_busy_s"], _ = group(spanTelemetry)
	out["telemetry.scrape_p50_us"] = median(pooled(spanTelemetry))
	out["influxql.queries"], out["influxql.busy_s"], _ = group(spanListing1, spanRange)
	out["influxql.listing1_p50_us"] = median(pooled(spanListing1))
	out["influxql.range_p50_us"] = median(pooled(spanRange))
	out["clock.steps"], out["clock.step_busy_s"], _ = group(spanStep)
	// A step's self time is what no benchmark-owned child covers: kubelet
	// workload timers, plus the TSDB sweep and aggregator expiry that ride
	// the same clock. Only a stack with an API server runs kubelets.
	if out["apiserver.events"] > 0 {
		out["kubelet.timers"] = repMedian(func(i int) float64 { return float64(perRep[i].get(spanStep).childless) })
		busyOf := func(i int) float64 { return perRep[i].get(spanStep).selfSeconds() }
		out["kubelet.timer_busy_s"] = repMedian(busyOf)
		out["kubelet.timer_share"] = repMedian(func(i int) float64 { return ratio(busyOf(i), reps[i].wall.Seconds()) })
	}

	// Replays of the captured logs through one layer alone.
	if tr.cap != nil {
		mc, err := priceMutations(tr.cap.events, int(out["watch.subscribers"]), tr.cap.async)
		if err != nil {
			return out, err
		}
		out["apiserver.commit_ns_per_event"] = mc.commitNS
		out["watch.deliver_ns_per_event_sub"] = mc.deliverNS
		out["core.cache_apply_ns_per_event"] = mc.cacheNS
		if out["telemetry.scrapes"] > 0 {
			out["lifecycle.consume_ns_per_event"] = mc.lifeNS
		}
		wc := priceWrites(tr.cap.writes)
		out["tsdb.write_ns_per_point"] = wc.writeNS
		out["monitor.windowmax_ns_per_point"] = wc.windowMaxNS
		out["monitor.windowmax_lookup_ns"] = wc.lookup
		out["tsdb.scan_us"], out["tsdb.sweep_us"], out["tsdb.swept_series"] = wc.scanUS, wc.sweepUS, float64(wc.swept)
		if out["monitor.windowmax_series"] == 0 {
			// The scheduler's aggregator is not reachable from outside
			// core; its series count comes from the write-log replay.
			out["monitor.windowmax_series"] = float64(wc.wmSeries)
		}
	}
	if peak := int(layer(layerPeakPending)); peak > 0 {
		out["apiserver.pending_visit_us"] = pendingVisitUS(peak)
	}

	// Workload-scoped end-to-end values, from the untraced reference reps.
	for name, v := range scopedValues(tr.untraced) {
		out[name] = v.Value
	}
	if len(reps[0].waits) > 0 { // the inputs are Borg jobs
		out["borg.evalslice_us"] = medianUS(21, func() { sgxorch.GenerateBorgEvalSlice(1) })
		out["borg.jobs"] = repMedian(func(i int) float64 { return float64(reps[i].ops) })
	}
	if out["influxql.queries"] > 0 {
		// The text parsed once already when the workload was set up.
		out["influxql.parse_us"] = medianUS(201, func() { _, _ = influxql.Parse(listing1) })
	}

	// Telemetry toll: how much longer a rep takes with the observability
	// plane on than the same rep with it off, clamped at 0.
	if tr.noTelem != nil {
		out["telemetry.toll_share"] = max(0, pairedExcess(tr.untraced.reps, tr.noTelem.reps))
	}

	// Runtime and the tracer itself.
	out["runtime.gc_cpu_share"] = ratio(tr.rtAfter.gcCPU-tr.rtBefore.gcCPU, tr.rtAfter.totalCPU-tr.rtBefore.totalCPU)
	out["runtime.gc_cycles"] = tr.rtAfter.cycles - tr.rtBefore.cycles
	out["runtime.heap_live_mb"] = repMedian(func(i int) float64 { return float64(reps[i].heapLive) / (1 << 20) })
	out["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
	out["trace.spans"] = repMedian(func(i int) float64 { return float64(len(byRep[int32(i+1)])) })
	out["trace.overhead_share"] = pairedExcess(reps, tr.untraced.reps)
	return out, nil
}

// pairedExcess is the median, over the rep indices both arms ran, of how
// much longer a's timed region took than b's, as a share of b's. The
// arms run each index back to back, so machine noise slower than a rep
// cancels out of the pair.
func pairedExcess(a, b []repResult) float64 {
	n := min(len(a), len(b))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = ratio(a[i].wall.Seconds()-b[i].wall.Seconds(), b[i].wall.Seconds())
	}
	return median(xs)
}

// renumber gives spans dense ids in slice order, remapping parents; a
// parent outside the slice becomes a root.
func renumber(spans []span) []span {
	ids := make(map[int32]int32, len(spans))
	for i, s := range spans {
		ids[s.ID] = int32(i)
	}
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID = int32(i)
		if p, ok := ids[s.Parent]; ok {
			s.Parent = p
		} else {
			s.Parent = noSpan
		}
		out[i] = s
	}
	return out
}

// scopedValues computes the workload-scoped end-to-end metrics from an
// untraced run: query latency pooled over reps before the percentile is
// taken, simulated times as the median over reps.
func scopedValues(r runResult) map[string]estimate {
	out := make(map[string]estimate)
	var queries []float64
	for _, rep := range r.reps {
		queries = append(queries, rep.queryUS...)
	}
	if len(queries) > 0 {
		s := sorted(queries)
		out["query_p50_us"] = estimate{Value: quantile(s, 0.5), Reps: len(s)}
		out["query_p99_us"] = estimate{Value: quantile(s, 0.99), Reps: len(s)}
	}
	if len(r.reps) > 0 && len(r.reps[0].waits) > 0 {
		q := func(p float64, pick func(repResult) []float64) estimate {
			return estimateOf(r.column(func(rep repResult) float64 { return quantile(sorted(pick(rep)), p) }))
		}
		all := func(rep repResult) []float64 { return rep.waits }
		out["sim_wait_p50_s"] = q(0.5, all)
		out["sim_wait_p99_s"] = q(0.99, all)
		out["sim_makespan_s"] = estimateOf(r.column(func(rep repResult) float64 { return rep.makespan }))
		if len(r.reps[0].lsWaits) > 0 {
			out["sim_ls_wait_p99_s"] = q(0.99, func(rep repResult) []float64 { return rep.lsWaits })
		}
	}
	return out
}

// medianUS is the median host time of n calls of f, in microseconds.
func medianUS(n int, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(xs)
}

// pendingVisitUS times VisitPendingN over a queue as deep as the
// workload's deepest, on a bare server.
func pendingVisitUS(depth int) float64 {
	srv := apiserver.New(clock.NewSim())
	defer srv.Close()
	for i := 0; i < depth; i++ {
		// Unique names cannot collide.
		_ = srv.CreatePod(&api.Pod{
			Name: fmt.Sprintf("pending-%06d", i),
			Spec: api.PodSpec{Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.MiB}},
			}}},
		})
	}
	return medianUS(21, func() { srv.VisitPendingN("", 0, func(*api.Pod) bool { return true }) })
}
