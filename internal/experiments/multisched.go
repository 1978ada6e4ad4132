package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/stack"
)

// This file is the multi-scheduler scaling experiment: the paper deploys
// schedulers "as a Kubernetes pod" and notes several can serve one
// cluster concurrently (§V-B). Here 1 vs 2 vs 4 sharded schedulers drain
// the same Borg backlog through the admission-checked conditional bind,
// reporting backlog-drain throughput, the optimistic-concurrency conflict
// rate, and the safety invariant — no node's committed requests ever
// exceed its allocatable — asserted post-hoc from the watch event stream.

// MultiSchedConfig parameterises one backlog drain.
type MultiSchedConfig struct {
	Seed   int64
	Shards int
	// SGXRatio is the fraction of backlog jobs designated SGX (0.10 by
	// default — EPC is scarce, so SGX jobs are where capacity conflicts
	// concentrate).
	SGXRatio float64
	// StdNodes / SGXNodes shape the cluster (16 / 4 by default: wide
	// enough that draining is scheduler-bound, not capacity-bound, which
	// is the regime where adding schedulers can pay off).
	StdNodes int
	SGXNodes int
	// MaxBindsPerPass is each member's per-pass bind budget (2 by
	// default): real schedulers have finite per-cycle throughput, and the
	// budget is what makes "more schedulers" measurable under the
	// simulation clock.
	MaxBindsPerPass int
	// Interval is the scheduling period (5 s default).
	Interval time.Duration
	// Concurrent runs rounds on real goroutines instead of the
	// deterministic round-robin (benchmarks only; conflict counts become
	// nondeterministic).
	Concurrent bool
	// Horizon caps the simulation (2 h default).
	Horizon time.Duration
}

func (c MultiSchedConfig) withDefaults() MultiSchedConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.SGXRatio <= 0 {
		c.SGXRatio = 0.10
	}
	if c.StdNodes <= 0 {
		c.StdNodes = 16
	}
	if c.SGXNodes <= 0 {
		c.SGXNodes = 4
	}
	if c.MaxBindsPerPass <= 0 {
		c.MaxBindsPerPass = 2
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Hour
	}
	return c
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
	// Violations counts capacity-invariant breaches derived from the
	// watch event stream (must be zero) plus any kubelet OutOfEPC
	// admission failures (the defense-in-depth layer the conditional bind
	// makes unreachable).
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

// capacityWatcher re-derives every node's committed requests from the
// watch event stream alone and counts the instants a node exceeds its
// allocatable — the post-hoc safety check the admission-checked bind must
// make impossible.
type capacityWatcher struct {
	alloc      map[string]resource.List
	committed  map[string]resource.List
	bound      map[string]boundCharge
	violations int
}

type boundCharge struct {
	node string
	req  resource.List
}

func newCapacityWatcher() *capacityWatcher {
	return &capacityWatcher{
		alloc:     make(map[string]resource.List),
		committed: make(map[string]resource.List),
		bound:     make(map[string]boundCharge),
	}
}

// onEvent applies one watch event. Callbacks are serialized by the API
// server's delivery ordering, so no locking is needed.
func (w *capacityWatcher) onEvent(ev apiserver.WatchEvent) {
	switch ev.Type {
	case apiserver.NodeRegistered, apiserver.NodeUpdated:
		w.alloc[ev.Node.Name] = ev.Node.Allocatable
	case apiserver.PodBound, apiserver.PodPermitHeld:
		// A gang permit commits its capacity on the node exactly like a
		// bind; the later PodBound from the group commit must not
		// double-charge the member.
		if _, held := w.bound[ev.Pod.Name]; held && ev.Type == apiserver.PodBound {
			w.check(ev.Pod.Spec.NodeName)
			return
		}
		req := ev.Pod.TotalRequests()
		w.committed[ev.Pod.Spec.NodeName] = w.committed[ev.Pod.Spec.NodeName].Add(req)
		w.bound[ev.Pod.Name] = boundCharge{node: ev.Pod.Spec.NodeName, req: req}
		w.check(ev.Pod.Spec.NodeName)
	case apiserver.PodUpdated, apiserver.PodPermitReleased:
		c, ok := w.bound[ev.Pod.Name]
		if ok && (ev.Type == apiserver.PodPermitReleased || ev.Pod.IsTerminal() || ev.Pod.Spec.NodeName == "") {
			w.committed[c.node] = w.committed[c.node].Sub(c.req)
			delete(w.bound, ev.Pod.Name)
		}
	}
}

func (w *capacityWatcher) check(node string) {
	alloc := w.alloc[node]
	for r, v := range w.committed[node] {
		if v > alloc[r] {
			w.violations++
		}
	}
}

// multiSchedPod converts one backlog job into a pod. Workloads sleep for
// the trace duration: the experiment measures scheduling and bind
// throughput, and sleeping keeps capacity churn (jobs finishing and
// freeing their nodes) without the memory-stress machinery.
func multiSchedPod(job borg.Job, sgxJob bool) *api.Pod {
	var req resource.List
	var limits resource.List
	if sgxJob {
		pages := resource.PagesForBytes(borg.SGXMemBytes(job.AssignedMemFrac))
		if pages < 1 {
			pages = 1
		}
		req = resource.List{resource.Memory: 16 * resource.MiB, resource.EPCPages: pages}
		limits = resource.List{resource.EPCPages: pages}
	} else {
		req = resource.List{resource.Memory: borg.StandardMemBytes(job.AssignedMemFrac)}
	}
	return &api.Pod{
		Name: traceJobName(job.ID),
		Spec: api.PodSpec{
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: req, Limits: limits},
				Workload:  api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: job.Duration},
			}},
		},
	}
}

// MultiSchedDrain submits the whole Borg eval slice as a backlog at t=0
// and measures how long a fleet of cfg.Shards schedulers takes to bind it
// all. The API server runs strict request-sum admission (the schedulers
// are request-only, so request sums are exactly the invariant each
// believes it maintains), every bind is conditional, and a watch
// subscriber re-derives node commitments from events to prove no node was
// ever overcommitted.
func MultiSchedDrain(cfg MultiSchedConfig) (MultiSchedResult, error) {
	cfg = cfg.withDefaults()
	st := stack.New(apiserver.WithAdmission(apiserver.AdmitStrict))
	clk, srv := st.Clk, st.Srv

	// The watcher subscribes before Start so it observes node
	// registrations, and unsubscribes after Close.
	watcher := newCapacityWatcher()
	defer srv.Subscribe(watcher.onEvent)()

	if err := st.Start(stack.Config{Nodes: stack.Fleet(cfg.StdNodes, cfg.SGXNodes, stack.DefaultEPC, false)}); err != nil {
		return MultiSchedResult{}, fmt.Errorf("multisched: %w", err)
	}
	defer st.Close()

	ss, err := core.NewSharded(clk, srv, nil, core.Config{
		Name:            "multisched",
		Policy:          core.Binpack{},
		Interval:        cfg.Interval,
		MaxBindsPerPass: cfg.MaxBindsPerPass,
	}, cfg.Shards, cfg.Concurrent)
	if err != nil {
		return MultiSchedResult{}, fmt.Errorf("multisched: building schedulers: %w", err)
	}
	defer ss.Close()

	trace := borg.NewGenerator(borg.DefaultConfig(cfg.Seed)).EvalSlice()
	isSGX := designateSGX(trace.Len(), cfg.SGXRatio, cfg.Seed)
	for i, job := range trace.Jobs {
		pod := multiSchedPod(job, isSGX[i])
		ss.Assign(pod)
		if err := srv.CreatePod(pod); err != nil {
			return MultiSchedResult{}, fmt.Errorf("multisched: submitting backlog: %w", err)
		}
	}

	start := clk.Now()
	ss.Start()
	completed := clk.Run(func() bool { return srv.PendingCount() == 0 }, start.Add(cfg.Horizon))

	res := MultiSchedResult{
		Shards:    cfg.Shards,
		Jobs:      trace.Len(),
		DrainTime: clk.Since(start),
		Completed: completed,
	}
	if secs := res.DrainTime.Seconds(); secs > 0 {
		res.BindsPerSecond = float64(res.Jobs-srv.PendingCount()) / secs
	}
	bs := srv.BindStats()
	res.Conflicts = ss.Stats().Conflicts
	res.Attempts = bs.Attempts
	if bs.Attempts > 0 {
		res.ConflictRate = float64(bs.RejectedCapacity+bs.RejectedNodeState) / float64(bs.Attempts)
	}
	res.Violations = watcher.violations
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
