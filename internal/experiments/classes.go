package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/model"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// This file is the workload-class experiment: a mixed fleet of all three
// classes drawn from the Borg trace on the §VI-A testbed shape. A
// best-effort filler wave occupies the cluster first; then the
// latency-sensitive and batch waves arrive on top, so the class gates
// actually engage — latency-sensitive jobs preempt the filler and search
// unsampled, batch bin-packs behind them, best-effort absorbs the
// evictions. Measured per class: p50/p99 waiting time (§VI-E's metric,
// split by class), preemptions suffered and inflicted, plus cluster-wide
// SGX (EPC) utilization and the capacity invariant, read off the
// reference model's replay of the watch stream.

// The mixed fleet's fixed shape, on the §VI-A testbed's nodes.
const (
	// classJobsPerClass sizes the latency-sensitive and batch waves.
	classJobsPerClass = 15
	// classFillers is the best-effort wave: with the §VI-A node shape,
	// three times a wave oversubscribes the fleet's RAM, which is the
	// regime the class gates exist for.
	classFillers = 3 * classJobsPerClass
	// classFillerHold floors every filler job's duration so the fleet is
	// still occupied when the real waves arrive.
	classFillerHold = 10 * time.Minute
	// classFillLead is how long the best-effort wave runs alone before the
	// latency-sensitive and batch waves arrive.
	classFillLead = 30 * time.Second
	// classSGXEvery makes every n-th latency-sensitive job an SGX job.
	classSGXEvery = 4
)

// ClassesExpConfig parameterises one mixed-fleet run.
type ClassesExpConfig struct {
	Seed   int64
	Shards int
	// SGXEvery makes every n-th latency-sensitive job an SGX job
	// (classSGXEvery when zero; negative disables SGX jobs).
	SGXEvery int

	// tap, when set, receives the run's whole watch stream from before
	// the first node registers: the in-package determinism test records
	// it and pins its digest across commits.
	tap func(apiserver.WatchEvent)
}

func (c ClassesExpConfig) withDefaults() ClassesExpConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.SGXEvery < 0 {
		c.SGXEvery = 0
	} else if c.SGXEvery == 0 {
		c.SGXEvery = classSGXEvery
	}
	return c
}

// Class priority tiers for the waves: realistic operator tiering.
const (
	classLatencyPrio = 100
	classBatchPrio   = 10
	classBEPrio      = 0
)

// ClassOutcome is one class's slice of the run.
type ClassOutcome struct {
	Jobs int
	// P50Wait / P99Wait are the §VI-E waiting-time quantiles over the
	// class's started jobs.
	P50Wait time.Duration
	P99Wait time.Duration
	// PreemptionsSuffered counts evictions of this class's bound jobs
	// (from the watch stream); PreemptionsInflicted / Victims are the
	// scheduler's per-class preemptor-side counters.
	PreemptionsSuffered  int
	PreemptionsInflicted int
	Victims              int
}

// ClassesExpResult reports one mixed-fleet run.
type ClassesExpResult struct {
	Shards int
	Jobs   int
	// Completed is true when every job went terminal before the horizon.
	Completed bool
	DrainTime time.Duration
	// PerClass is keyed by the api.WorkloadClass string of each wave.
	PerClass map[string]ClassOutcome
	// SGXUtilization is the time-averaged committed fraction of the
	// cluster's EPC pages between the first submission and the drain.
	SGXUtilization float64
	// Violations counts the watch events the reference model refused —
	// must be 0: class routing must never trade safety.
	Violations int
}

// submitWaves submits the mixed fleet's waves from trace: fillers
// best-effort jobs, held at least classFillerHold, run alone for
// classFillLead; then perClass latency-sensitive and perClass batch jobs
// arrive, interleaved, every sgxEvery-th latency-sensitive one an SGX job
// (none when sgxEvery is zero). names formats the pods of the three waves
// in that order.
func submitWaves(tb *Testbed, trace *borg.Trace, fillers, perClass, sgxEvery int, names [3]string) error {
	submit := func(job borg.Job, name string, class api.WorkloadClass, prio int32, sgxJob bool) error {
		pod := multiSchedPod(job, sgxJob)
		pod.Name, pod.Spec.Class, pod.Spec.Priority = name, class, prio
		if err := tb.Submit(pod); err != nil {
			return fmt.Errorf("submitting %s: %w", name, err)
		}
		return nil
	}
	for i := 0; i < fillers; i++ {
		job := trace.Jobs[i]
		job.Duration = max(job.Duration, classFillerHold)
		if err := submit(job, fmt.Sprintf(names[0], i), api.ClassBestEffort, classBEPrio, false); err != nil {
			return err
		}
	}
	tb.Clk.Advance(classFillLead)
	for i := 0; i < perClass; i++ {
		sgxJob := sgxEvery > 0 && i%sgxEvery == 0
		if err := submit(trace.Jobs[fillers+i], fmt.Sprintf(names[1], i),
			api.ClassLatencySensitive, classLatencyPrio, sgxJob); err != nil {
			return err
		}
		if err := submit(trace.Jobs[fillers+perClass+i], fmt.Sprintf(names[2], i),
			api.ClassBatch, classBatchPrio, false); err != nil {
			return err
		}
	}
	return nil
}

// waitQuantiles returns p50/p99 over the started jobs' waiting times.
func waitQuantiles(waits []time.Duration) (p50, p99 time.Duration) {
	if len(waits) == 0 {
		return 0, 0
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(waits)-1))
		return waits[i]
	}
	return at(0.50), at(0.99)
}

// ClassesMixedFleet runs the mixed-fleet scenario: the best-effort wave
// submits at t=0 and fills the cluster for classFillLead; then the
// latency-sensitive and batch waves (interleaved, LS first within each
// pair) arrive as a backlog on top. The run drains until every job is
// terminal or the horizon hits.
func ClassesMixedFleet(cfg ClassesExpConfig) (ClassesExpResult, error) {
	cfg = cfg.withDefaults()
	// The audit sees the whole stream, the kubelets' NotReady tail
	// included, and so does the tap. SGX utilization integrates the
	// model's committed EPC pages over time in steps at every SGX bind and
	// wherever a pod leaves its node: it is pinned bit for bit, and a
	// float sum split elsewhere can move a bit. epcSum is the page-seconds
	// up to the last step, epcPages the pages committed since.
	var tb *Testbed // step runs at pod events, after NewTestbed returns
	var epcAt time.Time
	epcSum, epcPages := 0.0, int64(0)
	step := func() {
		now := tb.Clk.Now()
		epcSum += float64(epcPages) * now.Sub(epcAt).Seconds()
		epcAt, epcPages = now, tb.audit.Total.Committed[resource.EPCPages]
	}
	tb, err := NewTestbed(TestbedConfig{
		Nodes: Fleet(StdNodes, SGXNodes, DefaultEPC, false),
		Scheduler: core.Config{
			Name:   "classsched",
			Policy: core.Binpack{},
		},
		Shards:    cfg.Shards,
		Admission: apiserver.AdmitStrict,
		onEvent: func(_ *model.Cluster, ev apiserver.WatchEvent, _ error) {
			leaves := ev.Type == apiserver.PodUpdated && (ev.Pod.IsTerminal() || ev.Pod.Spec.NodeName == "")
			if leaves || ev.Type == apiserver.PodBound && ev.Pod.IsSGX() {
				step()
			}
			if cfg.tap != nil {
				cfg.tap(ev)
			}
		},
	})
	if err != nil {
		return ClassesExpResult{}, fmt.Errorf("classes: %w", err)
	}
	defer tb.Close()
	clk, srv, a := tb.Clk, tb.Srv, tb.audit
	epcAt = clk.Now()

	start := clk.Now()
	// The best-effort wave binds and spreads while nothing else is queued;
	// the real work arrives on the occupied cluster.
	err = submitWaves(tb, borg.NewGenerator(cfg.Seed).EvalSlice(), classFillers, classJobsPerClass, cfg.SGXEvery,
		[3]string{"be-%03d", "ls-%03d", "batch-%03d"})
	if err != nil {
		return ClassesExpResult{}, fmt.Errorf("classes: %w", err)
	}
	completed := clk.Run(srv.AllTerminal, start.Add(drainHorizon))
	step()

	res := ClassesExpResult{
		Shards:     cfg.Shards,
		Jobs:       classFillers + 2*classJobsPerClass,
		Completed:  completed,
		DrainTime:  clk.Now().Sub(start),
		PerClass:   make(map[string]ClassOutcome),
		Violations: a.violations,
	}
	if window, pages := epcAt.Sub(start).Seconds(), a.Total.Allocatable[resource.EPCPages]; window > 0 && pages > 0 {
		res.SGXUtilization = epcSum / (float64(pages) * window)
	}
	waits := make(map[api.WorkloadClass][]time.Duration)
	counts := make(map[api.WorkloadClass]int)
	srv.VisitPods(func(p *api.Pod) bool {
		class := p.Spec.WorkloadClass()
		counts[class]++
		if w, ok := p.WaitingTime(); ok {
			waits[class] = append(waits[class], w)
		}
		return true
	})
	stats := tb.Fleet.Stats()
	for _, class := range api.Classes[1:] { // the three waves
		out := ClassOutcome{
			Jobs:                 counts[class],
			PreemptionsSuffered:  a.ByClass[class.Slot()].Preemptions,
			PreemptionsInflicted: stats.Class(class).Preemptions,
			Victims:              stats.Class(class).Victims,
		}
		out.P50Wait, out.P99Wait = waitQuantiles(waits[class])
		res.PerClass[string(class)] = out
	}
	return res, nil
}
