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
	"github.com/sgxorch/sgxorch/internal/stack"
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

// ClassesExpConfig parameterises one mixed-fleet run.
type ClassesExpConfig struct {
	Seed   int64
	Shards int
	// JobsPerClass sizes the latency-sensitive and batch waves (15 by
	// default).
	JobsPerClass int
	// FillerFactor scales the best-effort wave to FillerFactor ×
	// JobsPerClass jobs (3 by default — with the §VI-A node shape that
	// oversubscribes the fleet's RAM, which is the regime the class
	// gates exist for).
	FillerFactor int
	// FillerHold floors every filler job's duration (10 min by default)
	// so the fleet is still occupied when the real waves arrive.
	FillerHold time.Duration
	// SGXEvery makes every n-th latency-sensitive job an SGX job
	// (4 by default; 0 disables SGX jobs).
	SGXEvery int
	// StdNodes / SGXNodes shape the cluster (§VI-A: 2 / 2 by default).
	StdNodes int
	SGXNodes int
	// FillLead is how long the best-effort wave runs alone before the
	// latency-sensitive and batch waves arrive (30 s default).
	FillLead time.Duration
	// Interval is the scheduling period (5 s default).
	Interval time.Duration
	// Horizon caps the simulation (2 h default).
	Horizon time.Duration

	// tap, when set, receives the run's whole watch stream from before
	// the first node registers: the in-package determinism test records
	// it and pins its digest across commits.
	tap func(apiserver.WatchEvent)
}

func (c ClassesExpConfig) withDefaults() ClassesExpConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.JobsPerClass <= 0 {
		c.JobsPerClass = 15
	}
	if c.FillerFactor <= 0 {
		c.FillerFactor = 3
	}
	if c.FillerHold <= 0 {
		c.FillerHold = 10 * time.Minute
	}
	if c.SGXEvery < 0 {
		c.SGXEvery = 0
	} else if c.SGXEvery == 0 {
		c.SGXEvery = 4
	}
	if c.StdNodes <= 0 {
		c.StdNodes = stack.StdNodes
	}
	if c.SGXNodes <= 0 {
		c.SGXNodes = stack.SGXNodes
	}
	if c.FillLead <= 0 {
		c.FillLead = 30 * time.Second
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Hour
	}
	return c
}

// Class priority tiers for the waves: realistic operator tiering (and
// what the classifier's priority signal would infer from).
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

// classPodFromJob shapes one wave member from a trace job.
func classPodFromJob(job borg.Job, name string, class api.WorkloadClass, prio int32, sgxJob bool) *api.Pod {
	pod := multiSchedPod(job, sgxJob)
	pod.Name = name
	pod.Spec.Class = class
	pod.Spec.Priority = prio
	return pod
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
// submits at t=0 and fills the cluster for FillLead; then the
// latency-sensitive and batch waves (interleaved, LS first within each
// pair) arrive as a backlog on top. The run drains until every job is
// terminal or the horizon hits.
func ClassesMixedFleet(cfg ClassesExpConfig) (ClassesExpResult, error) {
	cfg = cfg.withDefaults()
	st := stack.New(apiserver.WithAdmission(apiserver.AdmitStrict))
	clk, srv := st.Clk, st.Srv

	// The model and the tap subscribe before Start — before any node
	// exists — so the replayed stream is complete, and stay subscribed
	// through Close: the tap's digest covers the kubelets' NotReady tail.
	// SGX utilization integrates the model's committed EPC pages over time
	// in steps at every SGX bind and wherever a pod leaves its node: it is
	// pinned bit for bit, and a float sum split elsewhere can move a bit.
	// epcSum is the page-seconds up to the last step, epcPages the pages
	// committed since.
	m, refused := model.New(apiserver.AdmitStrict), 0
	epcAt, epcSum, epcPages := clk.Now(), 0.0, int64(0)
	step := func() {
		now := clk.Now()
		epcSum += float64(epcPages) * now.Sub(epcAt).Seconds()
		epcAt, epcPages = now, m.Total.Committed[resource.EPCPages]
	}
	defer srv.Subscribe(func(ev apiserver.WatchEvent) {
		if m.Apply(ev) != nil {
			refused++
		}
		leaves := ev.Type == apiserver.PodUpdated && (ev.Pod.IsTerminal() || ev.Pod.Spec.NodeName == "")
		if leaves || ev.Type == apiserver.PodBound && ev.Pod.IsSGX() {
			step()
		}
	})()
	if cfg.tap != nil {
		defer srv.Subscribe(cfg.tap)()
	}

	if err := st.Start(stack.Config{Nodes: stack.Fleet(cfg.StdNodes, cfg.SGXNodes, stack.DefaultEPC, false)}); err != nil {
		return ClassesExpResult{}, fmt.Errorf("classes: %w", err)
	}
	defer st.Close()

	classes := core.NewClassRegistry(core.NewWorkloadClassifier(core.ClassifierConfig{}))
	ss, err := core.NewSharded(clk, srv, nil, core.Config{
		Name:     "classsched",
		Policy:   core.Binpack{},
		Interval: cfg.Interval,
		Classes:  classes,
	}, cfg.Shards, false)
	if err != nil {
		return ClassesExpResult{}, fmt.Errorf("classes: building schedulers: %w", err)
	}
	defer ss.Close()

	trace := borg.NewGenerator(borg.DefaultConfig(cfg.Seed)).EvalSlice()
	fillers := cfg.FillerFactor * cfg.JobsPerClass
	need := fillers + 2*cfg.JobsPerClass
	if trace.Len() < need {
		return ClassesExpResult{}, fmt.Errorf("classes: trace has %d jobs, need %d", trace.Len(), need)
	}
	submit := func(pod *api.Pod) error {
		ss.Assign(pod)
		return srv.CreatePod(pod)
	}
	// Best-effort filler first: it binds and spreads while nothing else
	// is queued, and holds the fleet for at least FillerHold.
	for i := 0; i < fillers; i++ {
		job := trace.Jobs[i]
		if job.Duration < cfg.FillerHold {
			job.Duration = cfg.FillerHold
		}
		pod := classPodFromJob(job, fmt.Sprintf("be-%03d", i),
			api.ClassBestEffort, classBEPrio, false)
		if err := submit(pod); err != nil {
			return ClassesExpResult{}, fmt.Errorf("classes: submitting filler: %w", err)
		}
	}
	start := clk.Now()
	ss.Start()
	clk.Advance(cfg.FillLead)

	// The real work arrives on the occupied cluster.
	for i := 0; i < cfg.JobsPerClass; i++ {
		sgxJob := cfg.SGXEvery > 0 && i%cfg.SGXEvery == 0 && cfg.SGXNodes > 0
		ls := classPodFromJob(trace.Jobs[fillers+i], fmt.Sprintf("ls-%03d", i),
			api.ClassLatencySensitive, classLatencyPrio, sgxJob)
		if err := submit(ls); err != nil {
			return ClassesExpResult{}, fmt.Errorf("classes: submitting latency wave: %w", err)
		}
		batch := classPodFromJob(trace.Jobs[fillers+cfg.JobsPerClass+i], fmt.Sprintf("batch-%03d", i),
			api.ClassBatch, classBatchPrio, false)
		if err := submit(batch); err != nil {
			return ClassesExpResult{}, fmt.Errorf("classes: submitting batch wave: %w", err)
		}
	}

	completed := clk.Run(srv.AllTerminal, start.Add(cfg.Horizon))
	step()

	res := ClassesExpResult{
		Shards:     cfg.Shards,
		Jobs:       need,
		Completed:  completed,
		DrainTime:  clk.Since(start),
		PerClass:   make(map[string]ClassOutcome),
		Violations: refused,
	}
	if window, pages := epcAt.Sub(start).Seconds(), m.Total.Allocatable[resource.EPCPages]; window > 0 && pages > 0 {
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
	stats := ss.Stats()
	for _, class := range api.Classes[1:] { // the three waves
		out := ClassOutcome{
			Jobs:                 counts[class],
			PreemptionsSuffered:  m.ByClass[class.Slot()].Preemptions,
			PreemptionsInflicted: stats.Class(class).Preemptions,
			Victims:              stats.Class(class).Victims,
		}
		out.P50Wait, out.P99Wait = waitQuantiles(waits[class])
		res.PerClass[string(class)] = out
	}
	return res, nil
}
