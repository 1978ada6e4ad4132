package experiments

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/influxql"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// This file is the observability experiment: the full telemetry loop on
// the §VI-A testbed. A mixed-class Borg workload drains through an
// instrumented stack while the registry self-scrapes into the same TSDB
// that holds the container metrics; afterwards the per-class submit→bind
// p99 is read back through InfluxQL, and the run cross-checks the
// telemetry against ground truth independently re-derived from the watch
// event stream. Any disagreement — trace sequence regressions, histogram
// totals diverging from the event stream, metrics the scrape failed to
// materialise — is reported as a violation, not an error: the harness
// completes and lets the caller decide how loudly to fail.

// ObservabilityConfig parameterises one instrumented run.
type ObservabilityConfig struct {
	Seed int64
	// JobsPerClass sizes the latency-sensitive and batch waves (12 by
	// default); the best-effort filler wave is 4 × JobsPerClass jobs with
	// durations floored to fillerHold, so the fleet is occupied when the
	// real waves arrive and the class gates produce distinct latency
	// distributions to observe.
	JobsPerClass int
	// FillLead is how long the filler wave runs alone (30 s default).
	FillLead time.Duration
	// SGXEvery makes every n-th latency-sensitive job an SGX job
	// (4 by default; negative disables).
	SGXEvery int
	// Interval is the scheduling period (5 s default); ScrapeInterval the
	// self-scrape cadence (10 s default).
	Interval       time.Duration
	ScrapeInterval time.Duration
	// TraceDetailEvery samples detailed per-plugin tracing (every pass by
	// default: a drain this size only has a handful of busy passes, and
	// the run must surface plugin spans to audit them).
	TraceDetailEvery int
	// Horizon caps the simulation (2 h default).
	Horizon time.Duration
}

func (c ObservabilityConfig) withDefaults() ObservabilityConfig {
	if c.JobsPerClass <= 0 {
		c.JobsPerClass = 12
	}
	if c.FillLead <= 0 {
		c.FillLead = 30 * time.Second
	}
	if c.SGXEvery == 0 {
		c.SGXEvery = 4
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = 10 * time.Second
	}
	if c.TraceDetailEvery <= 0 {
		c.TraceDetailEvery = 1
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Hour
	}
	return c
}

// ObservabilityClassOutcome is one class's telemetry slice.
type ObservabilityClassOutcome struct {
	Jobs int
	// Binds counts PodBound events for the class, from the event stream.
	Binds int
	// P50Queue / P99Queue are the submit→bind latency quantiles read back
	// from the self-scraped TSDB via InfluxQL (seconds).
	P50Queue float64
	P99Queue float64
}

// ObservabilityResult reports one instrumented run.
type ObservabilityResult struct {
	Jobs      int
	Completed bool
	DrainTime time.Duration
	// Passes is scheduler_passes_total at drain; Scrapes how many
	// self-scrape ticks fired.
	Passes  int64
	Scrapes int64
	// Traces / DetailedTraces count the pass-trace ring's retained
	// entries and how many carried per-plugin spans.
	Traces         int
	DetailedTraces int
	// BindsObserved / RunsObserved are the event-stream ground truth the
	// lifecycle histograms are checked against.
	BindsObserved int
	RunsObserved  int
	// PerClass is keyed by class label ("latency-sensitive", "batch",
	// "best-effort").
	PerClass map[string]ObservabilityClassOutcome
	// Violations lists every telemetry invariant the run broke; an
	// honest stack produces none.
	Violations []string
}

// obsEventCounter independently re-derives lifecycle ground truth from
// the watch stream: binds per class, and run transitions per scheduling
// cycle (a preemption requeue to Pending starts a new cycle) — the exact
// identities the lifecycle tracker's histograms must reproduce.
type obsEventCounter struct {
	binds   map[api.WorkloadClass]int
	runs    int
	running map[string]bool
}

func newObsEventCounter() *obsEventCounter {
	return &obsEventCounter{
		binds:   make(map[api.WorkloadClass]int),
		running: make(map[string]bool),
	}
}

func (c *obsEventCounter) onEvent(ev apiserver.WatchEvent) {
	switch ev.Type {
	case apiserver.PodBound:
		c.binds[ev.Pod.Spec.WorkloadClass()]++
	case apiserver.PodUpdated:
		switch ev.Pod.Status.Phase {
		case api.PodRunning:
			if !c.running[ev.Pod.Name] {
				c.running[ev.Pod.Name] = true
				c.runs++
			}
		default:
			delete(c.running, ev.Pod.Name)
		}
	}
}

func (c *obsEventCounter) totalBinds() int {
	total := 0
	for _, n := range c.binds {
		total += n
	}
	return total
}

// Observability runs the instrumented mixed-class drain and audits the
// telemetry it produced.
func Observability(cfg ObservabilityConfig) (ObservabilityResult, error) {
	cfg = cfg.withDefaults()
	reg := telemetry.New()
	ring := telemetry.NewTraceRing(0)
	tb, err := NewTestbed(TestbedConfig{
		UseMetrics:        true,
		SchedulerInterval: cfg.Interval,
		ScrapeInterval:    cfg.ScrapeInterval,
		Classes:           core.NewClassRegistry(core.NewWorkloadClassifier(core.ClassifierConfig{})),
		Telemetry:         reg,
		Trace:             ring,
		TraceDetailEvery:  cfg.TraceDetailEvery,
	})
	if err != nil {
		return ObservabilityResult{}, err
	}
	defer tb.Close()

	// Ground truth and the lifecycle tracker consume the same stream.
	counter := newObsEventCounter()
	defer tb.Srv.Subscribe(counter.onEvent)()
	tb.Observe(reg, cfg.ScrapeInterval)

	trace := borg.NewGenerator(borg.DefaultConfig(cfg.Seed)).EvalSlice()
	fillers := 4 * cfg.JobsPerClass
	need := fillers + 2*cfg.JobsPerClass
	if trace.Len() < need {
		return ObservabilityResult{}, fmt.Errorf("observability: trace has %d jobs, need %d", trace.Len(), need)
	}
	submit := func(job borg.Job, name string, class api.WorkloadClass, prio int32, sgxJob bool) error {
		pod := multiSchedPod(job, sgxJob)
		pod.Name = name
		pod.Spec.SchedulerName = SchedulerName
		pod.Spec.Class = class
		pod.Spec.Priority = prio
		if err := tb.Srv.CreatePod(pod); err != nil {
			return fmt.Errorf("observability: submitting %s: %w", name, err)
		}
		return nil
	}
	start := tb.Clk.Now()
	// Best-effort fillers occupy the fleet first, held long enough that
	// the later waves find it busy.
	const fillerHold = 10 * time.Minute
	for i := 0; i < fillers; i++ {
		job := trace.Jobs[i]
		if job.Duration < fillerHold {
			job.Duration = fillerHold
		}
		if err := submit(job, fmt.Sprintf("best-effort-%03d", i),
			api.ClassBestEffort, classBEPrio, false); err != nil {
			return ObservabilityResult{}, err
		}
	}
	tb.Clk.Advance(cfg.FillLead)
	for i := 0; i < cfg.JobsPerClass; i++ {
		sgxJob := cfg.SGXEvery > 0 && i%cfg.SGXEvery == 0
		if err := submit(trace.Jobs[fillers+i], fmt.Sprintf("latency-sensitive-%03d", i),
			api.ClassLatencySensitive, classLatencyPrio, sgxJob); err != nil {
			return ObservabilityResult{}, err
		}
		if err := submit(trace.Jobs[fillers+cfg.JobsPerClass+i], fmt.Sprintf("batch-%03d", i),
			api.ClassBatch, classBatchPrio, false); err != nil {
			return ObservabilityResult{}, err
		}
	}
	completed := tb.Clk.Run(tb.Srv.AllTerminal, start.Add(cfg.Horizon))
	// One final scrape so the TSDB holds the drained end-state.
	reg.ScrapeInto(tb.DB)
	scrapes := int64(tb.Clk.Since(start)/cfg.ScrapeInterval) + 1

	res := ObservabilityResult{
		Jobs:          need,
		Completed:     completed,
		DrainTime:     tb.Clk.Since(start),
		Passes:        reg.Counter("scheduler_passes_total").Value(),
		Scrapes:       scrapes,
		BindsObserved: counter.totalBinds(),
		RunsObserved:  counter.runs,
		PerClass:      make(map[string]ObservabilityClassOutcome),
	}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// Trace-ring invariants: non-empty, strictly increasing Seq, pending
	// recorded on every retained pass, detailed passes carry plugin spans.
	traces := ring.Snapshot()
	res.Traces = len(traces)
	if len(traces) == 0 {
		violate("trace ring empty after %d passes", res.Passes)
	}
	var lastSeq int64
	for _, tr := range traces {
		if tr.Seq <= lastSeq {
			violate("trace Seq not strictly increasing: %d after %d", tr.Seq, lastSeq)
		}
		lastSeq = tr.Seq
		if tr.Pending == 0 {
			violate("trace seq=%d retained with zero pending pods", tr.Seq)
		}
		if tr.Detailed {
			res.DetailedTraces++
			hasPlugin := false
			for _, sp := range tr.Spans {
				if sp.Plugin != "" {
					hasPlugin = true
					break
				}
			}
			if !hasPlugin {
				violate("detailed trace seq=%d has no plugin spans", tr.Seq)
			}
		}
	}
	if res.DetailedTraces == 0 {
		violate("no detailed trace sampled (TraceDetailEvery=%d)", cfg.TraceDetailEvery)
	}

	// Histogram ≡ event stream: the lifecycle histograms must total the
	// independently counted binds and run transitions.
	queueTotal, startupTotal, totalTotal := int64(0), int64(0), int64(0)
	for _, class := range api.Classes {
		label := class.Label()
		queueTotal += reg.HistogramVec("lifecycle_queue_seconds", "class", nil).With(label).Count()
		startupTotal += reg.HistogramVec("lifecycle_startup_seconds", "class", nil).With(label).Count()
		totalTotal += reg.HistogramVec("lifecycle_submit_to_run_seconds", "class", nil).With(label).Count()
	}
	if queueTotal != int64(counter.totalBinds()) {
		violate("queue histogram total %d != event-derived binds %d", queueTotal, counter.totalBinds())
	}
	if startupTotal != int64(counter.runs) {
		violate("startup histogram total %d != event-derived runs %d", startupTotal, counter.runs)
	}
	if totalTotal != int64(counter.runs) {
		violate("submit-to-run histogram total %d != event-derived runs %d", totalTotal, counter.runs)
	}
	if binds := tb.Tracker.BindsObserved(); binds != int64(counter.totalBinds()) {
		violate("tracker binds %d != event-derived binds %d", binds, counter.totalBinds())
	}
	if res.Passes == 0 {
		violate("scheduler_passes_total = 0 after a full drain")
	}
	if got := reg.Histogram("scheduler_pass_duration_seconds", nil).Count(); got != res.Passes {
		violate("pass duration histogram count %d != passes_total %d", got, res.Passes)
	}
	if got := reg.Histogram("apiserver_bind_latency_seconds", nil).Count(); got < int64(counter.totalBinds()) {
		violate("bind latency count %d < binds %d", got, counter.totalBinds())
	}

	// Read the per-class submit→bind quantiles back out of the TSDB the
	// way an operator would: InfluxQL over the self-scraped series.
	for q, field := range map[string]func(*ObservabilityClassOutcome) *float64{
		"0.5":  func(o *ObservabilityClassOutcome) *float64 { return &o.P50Queue },
		"0.99": func(o *ObservabilityClassOutcome) *float64 { return &o.P99Queue },
	} {
		qr, err := influxql.Execute(tb.DB, fmt.Sprintf(
			`SELECT MAX(value) FROM "self/lifecycle_queue_seconds" WHERE quantile = '%s' GROUP BY class`, q))
		if err != nil {
			return ObservabilityResult{}, fmt.Errorf("observability: quantile query: %w", err)
		}
		byClass := qr.ValueByTag("class")
		for _, class := range api.Classes[1:] { // the three waves
			label := class.Label()
			out := res.PerClass[label]
			out.Jobs = cfg.JobsPerClass
			if class == api.ClassBestEffort {
				out.Jobs = fillers
			}
			out.Binds = counter.binds[class]
			if v, ok := byClass[label]; ok {
				*field(&out) = v
			} else if out.Binds > 0 {
				violate("self-scrape missing %s p%s series despite %d binds", label, q, out.Binds)
			}
			res.PerClass[label] = out
		}
	}
	return res, nil
}
