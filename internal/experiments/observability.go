package experiments

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/influxql"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// This file is the observability experiment: the full telemetry loop on
// the §VI-A testbed. A mixed-class Borg workload drains through an
// instrumented stack while the registry self-scrapes into the same TSDB
// that holds the container metrics; afterwards the per-class submit→bind
// p99 is read back through InfluxQL, and the run cross-checks the
// telemetry against ground truth the reference model re-derives from the
// watch stream. Any disagreement — trace sequence regressions, histogram
// totals diverging from the stream, metrics the scrape failed to
// materialise, events the model refused — is a violation, not an error:
// the harness completes and lets the caller decide how loudly to fail.

// ObservabilityConfig parameterises one instrumented run. Its waves have
// the mixed fleet's shape (classes.go): every classSGXEvery-th
// latency-sensitive job is an SGX job, and the best-effort filler wave,
// 4 × JobsPerClass jobs with durations floored to classFillerHold, runs
// alone for classFillLead, so the fleet is occupied when the real waves
// arrive and the class gates produce distinct latency distributions to
// observe. Every pass is traced in detail: a drain this size only has a
// handful of busy passes, and the run must surface the per-pod stage
// spans to audit them.
type ObservabilityConfig struct {
	Seed int64
	// JobsPerClass sizes the latency-sensitive and batch waves (12 when
	// zero).
	JobsPerClass int
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
	// Passes is scheduler_pass_duration_seconds' count at drain; Scrapes
	// how many self-scrape ticks fired.
	Passes  int64
	Scrapes int64
	// Traces / DetailedTraces count the pass-trace ring's retained
	// entries and how many carried per-pod stage spans.
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

// Observability runs the instrumented mixed-class drain and audits the
// telemetry it produced.
func Observability(cfg ObservabilityConfig) (ObservabilityResult, error) {
	if cfg.JobsPerClass <= 0 {
		cfg.JobsPerClass = 12
	}
	reg := telemetry.New()
	ring := telemetry.NewTraceRing(0)
	// The §VI-A testbed, instrumented, with EPC limits off. Ground truth:
	// the reference model reads the server's stream.
	tcfg := Paper(0)
	tcfg.NoEnforcement = true
	tcfg.Scheduler = core.Config{
		Name:             SchedulerName,
		Policy:           core.Binpack{},
		UseMetrics:       true,
		Telemetry:        reg,
		Trace:            ring,
		TraceDetailEvery: 1,
	}
	tb, err := NewTestbed(tcfg)
	if err != nil {
		return ObservabilityResult{}, err
	}
	defer tb.Close()
	a := tb.audit

	trace := borg.NewGenerator(cfg.Seed).EvalSlice()
	fillers := 4 * cfg.JobsPerClass
	need := fillers + 2*cfg.JobsPerClass
	if trace.Len() < need {
		return ObservabilityResult{}, fmt.Errorf("observability: trace has %d jobs, need %d", trace.Len(), need)
	}
	start := tb.Clk.Now()
	err = submitWaves(tb, trace, fillers, cfg.JobsPerClass, classSGXEvery,
		[3]string{"best-effort-%03d", "latency-sensitive-%03d", "batch-%03d"})
	if err != nil {
		return ObservabilityResult{}, fmt.Errorf("observability: %w", err)
	}
	completed := tb.Clk.Run(tb.Srv.AllTerminal, start.Add(drainHorizon))
	// One final scrape so the TSDB holds the drained end-state.
	reg.ScrapeInto(tb.DB)
	scrapes := int64(tb.Clk.Now().Sub(start)/monitor.DefaultScrapeInterval) + 1

	res := ObservabilityResult{
		Jobs:      need,
		Completed: completed,
		DrainTime: tb.Clk.Now().Sub(start),
		Passes:    reg.Histogram("scheduler_pass_duration_seconds", nil).Count(),
		Scrapes:   scrapes,
		PerClass:  make(map[string]ObservabilityClassOutcome),
	}
	for _, tally := range a.ByClass {
		res.BindsObserved += tally.Binds
		res.RunsObserved += tally.Runs
	}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	if a.violations > 0 {
		violate("the reference model refused %d watch events", a.violations)
	}

	// Trace-ring invariants: non-empty, strictly increasing Seq, pending
	// recorded on every retained pass, filter and score spans on detailed
	// passes and on no others.
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
		perPod := 0
		for _, sp := range tr.Spans {
			if sp.Stage == telemetry.StageFilter || sp.Stage == telemetry.StageScore {
				perPod++
			}
		}
		if tr.Detailed {
			res.DetailedTraces++
			if perPod != 2 {
				violate("detailed trace seq=%d has %d of the filter and score spans", tr.Seq, perPod)
			}
		} else if perPod != 0 {
			violate("undetailed trace seq=%d carries per-pod stage spans", tr.Seq)
		}
	}
	if res.DetailedTraces == 0 {
		violate("no detailed trace sampled with every pass detailed")
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
	if queueTotal != int64(res.BindsObserved) {
		violate("queue histogram total %d != event-derived binds %d", queueTotal, res.BindsObserved)
	}
	if startupTotal != int64(res.RunsObserved) {
		violate("startup histogram total %d != event-derived runs %d", startupTotal, res.RunsObserved)
	}
	if totalTotal != int64(res.RunsObserved) {
		violate("submit-to-run histogram total %d != event-derived runs %d", totalTotal, res.RunsObserved)
	}
	if binds := tb.Tracker.BindsObserved(); binds != int64(res.BindsObserved) {
		violate("tracker binds %d != event-derived binds %d", binds, res.BindsObserved)
	}
	if res.Passes == 0 {
		violate("no pass recorded after a full drain")
	}
	if got := reg.Histogram("apiserver_bind_latency_seconds", nil).Count(); got < int64(res.BindsObserved) {
		violate("bind latency count %d < binds %d", got, res.BindsObserved)
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
			out.Binds = a.ByClass[class.Slot()].Binds
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
