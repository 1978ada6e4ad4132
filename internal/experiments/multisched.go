package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/core"
)

// This file is the multi-scheduler scaling experiment: the paper deploys
// schedulers "as a Kubernetes pod" and notes several can serve one
// cluster concurrently (§V-B). Here 1 vs 2 vs 4 sharded schedulers drain
// the same Borg backlog through the admission-checked conditional bind,
// reporting backlog-drain throughput, the optimistic-concurrency conflict
// rate, and the safety invariant — no node's committed requests ever
// exceed its allocatable — asserted from the watch event stream.

// drainHorizon cuts off a backlog drain that has not finished.
const drainHorizon = 2 * time.Hour

// The drain's fixed shape.
const (
	// multiSchedSGXRatio is the fraction of backlog jobs designated SGX:
	// EPC is scarce, so SGX jobs are where capacity conflicts concentrate.
	multiSchedSGXRatio = 0.10
	// multiSchedStdNodes / multiSchedSGXNodes shape the cluster: wide
	// enough that draining is scheduler-bound, not capacity-bound, which is
	// the regime where adding schedulers can pay off.
	multiSchedStdNodes = 16
	multiSchedSGXNodes = 4
	// multiSchedBindsPerPass is each member's per-pass bind budget: real
	// schedulers have finite per-cycle throughput, and the budget is what
	// makes "more schedulers" measurable under the simulation clock.
	multiSchedBindsPerPass = 2
)

// MultiSchedConfig parameterises one backlog drain.
type MultiSchedConfig struct {
	Seed   int64
	Shards int
	// Concurrent runs rounds on real goroutines instead of the
	// deterministic round-robin (benchmarks only; conflict counts become
	// nondeterministic).
	Concurrent bool
	// Horizon caps the simulation (drainHorizon when zero).
	Horizon time.Duration
}

// MultiSchedResult reports one drain.
type MultiSchedResult struct {
	Shards int
	Jobs   int
	// DrainTime is submission → empty pending queue (every job bound);
	// Completed is false when the horizon hit first.
	DrainTime time.Duration
	Completed bool
	// BindsPerSecond is the backlog-drain throughput: jobs actually
	// drained / DrainTime (on an incomplete run, still-pending jobs do
	// not count).
	BindsPerSecond float64
	// Conflicts counts binds the admission check refused because a
	// member's view was stale; ConflictRate is conflicts / bind attempts.
	Conflicts    int
	Attempts     int64
	ConflictRate float64
	// Violations counts the watch events the reference model refused (must
	// be zero) plus any kubelet OutOfEPC admission failures (the
	// defense-in-depth layer the conditional bind makes unreachable).
	Violations int
	// Failed counts jobs that ended Failed.
	Failed int
}

// MultiSchedComparison is the 1 vs 2 vs 4 scenario outcome.
type MultiSchedComparison struct {
	Results []MultiSchedResult
	// SpeedupX2 / SpeedupX4 are drain-throughput ratios over the
	// single-scheduler run.
	SpeedupX2 float64
	SpeedupX4 float64
}

// multiSchedPod is job's pod (fill) with the workload swapped for a
// sleep of the job's duration: the backlogs measure scheduling and bind
// throughput, and sleeping keeps capacity churn (jobs finishing and
// freeing their nodes) without the memory-stress machinery.
func multiSchedPod(job Job) *api.Pod {
	pod := new(api.Pod)
	job.fill(pod, new([1]api.Container))
	pod.Spec.Containers[0].Workload = api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: job.Duration}
	return pod
}

// MultiSchedDrain submits the whole Borg eval slice as a backlog at t=0
// and measures how long a fleet of cfg.Shards schedulers takes to bind it
// all. The API server runs strict request-sum admission (the schedulers
// are request-only, so request sums are exactly the invariant each
// believes it maintains), every bind is conditional, and the reference
// model replays the watch stream to prove no node was ever overcommitted.
func MultiSchedDrain(cfg MultiSchedConfig) (MultiSchedResult, error) {
	cfg.Shards = max(cfg.Shards, 1)
	if cfg.Horizon <= 0 {
		cfg.Horizon = drainHorizon
	}
	tb, err := NewTestbed(TestbedConfig{
		Nodes: Fleet(multiSchedStdNodes, multiSchedSGXNodes, DefaultEPC, false),
		Scheduler: core.Config{
			Name:            "multisched",
			Policy:          core.Binpack{},
			MaxBindsPerPass: multiSchedBindsPerPass,
		},
		Shards:     cfg.Shards,
		Concurrent: cfg.Concurrent,
		Admission:  apiserver.AdmitStrict,
	})
	if err != nil {
		return MultiSchedResult{}, fmt.Errorf("multisched: %w", err)
	}
	defer tb.Close()
	clk, srv := tb.Clk, tb.Srv

	trace := borg.NewGenerator(cfg.Seed).EvalSlice()
	isSGX := designateSGX(trace.Len(), multiSchedSGXRatio, cfg.Seed)
	for i, job := range trace.Jobs {
		if err := tb.Submit(multiSchedPod(TraceJob(traceJobName(job.ID), job, isSGX[i], false))); err != nil {
			return MultiSchedResult{}, fmt.Errorf("multisched: submitting backlog: %w", err)
		}
	}

	start := clk.Now()
	completed := clk.Run(func() bool { return srv.PendingCount() == 0 }, start.Add(cfg.Horizon))

	res := MultiSchedResult{
		Shards:    cfg.Shards,
		Jobs:      trace.Len(),
		DrainTime: clk.Now().Sub(start),
		Completed: completed,
	}
	if secs := res.DrainTime.Seconds(); secs > 0 {
		res.BindsPerSecond = float64(res.Jobs-srv.PendingCount()) / secs
	}
	bs := srv.BindStats()
	res.Conflicts = tb.Fleet.Stats().Conflicts
	res.Attempts = bs.Attempts
	if bs.Attempts > 0 {
		res.ConflictRate = float64(bs.RejectedCapacity+bs.RejectedNodeState) / float64(bs.Attempts)
	}
	res.Violations = tb.audit.violations
	for _, p := range srv.ListPods(func(p *api.Pod) bool { return p.Status.Phase == api.PodFailed }) {
		res.Failed++
		if strings.Contains(p.Status.Reason, "OutOfEPC") {
			// The kubelet's defense-in-depth admission fired: the
			// conditional bind let an overcommit through.
			res.Violations++
		}
	}
	return res, nil
}

// MultiSchedScenario drains the same seeded backlog with 1, 2 and 4
// schedulers and reports the throughput scaling.
func MultiSchedScenario(seed int64) (MultiSchedComparison, error) {
	var cmp MultiSchedComparison
	for _, shards := range []int{1, 2, 4} {
		res, err := MultiSchedDrain(MultiSchedConfig{Seed: seed, Shards: shards})
		if err != nil {
			return MultiSchedComparison{}, err
		}
		cmp.Results = append(cmp.Results, res)
	}
	base := cmp.Results[0].BindsPerSecond
	if base > 0 {
		cmp.SpeedupX2 = cmp.Results[1].BindsPerSecond / base
		cmp.SpeedupX4 = cmp.Results[2].BindsPerSecond / base
	}
	return cmp, nil
}
