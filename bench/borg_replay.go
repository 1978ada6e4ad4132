package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/sgxorch/sgxorch"
	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// borgReplay is the paper's §VI-B experiment: the 663-job eval slice
// replayed on the 5-machine testbed at SGX ratio 0.5, binpack,
// usage-aware, enforcement on. One rep is one replay; one op is one job
// reaching a terminal phase.
//
// Untraced, a replay is one call of the public sgxorch.ReplayBorgTrace.
// Traced, the harness assembles the same testbed itself (stack.go) and
// re-implements the replay loop around it; the two must produce the same
// sim digest.
type borgReplay struct{}

const (
	borgSGXRatio  = 0.5
	borgHorizon   = 24 * time.Hour
	borgScheduler = "sgx-aware" // experiments.SchedulerName
	borgSampling  = 30 * time.Second
)

func (borgReplay) name() string   { return "borg_replay" }
func (borgReplay) opName() string { return "job reaching a terminal phase" }

// borgOutcome is the part of a job's result both the public API and the
// traced harness can see; the digest is taken over it.
type borgOutcome struct {
	name       string
	phase      string
	started    bool
	waiting    time.Duration
	turnaround time.Duration
}

func (w borgReplay) rep(rc *repCtx) error {
	seed := subSeed(rc.seed, rc.rep, 0)
	var trace *borg.Trace
	rc.setup(func() {
		trace = sgxorch.GenerateBorgEvalSlice(seed)
		trace.Jobs = trace.Jobs[:rc.sc.borgJobs]
	})

	var outcomes []borgOutcome
	var makespan time.Duration
	var err error
	if rc.tr == nil {
		rc.timed(func() {
			var res *sgxorch.ReplayResult
			res, err = sgxorch.ReplayBorgTrace(sgxorch.ReplayOptions{
				Trace:    trace,
				Seed:     seed,
				SGXRatio: borgSGXRatio,
				Horizon:  borgHorizon,
			})
			if err != nil {
				return
			}
			if !res.Completed {
				err = fmt.Errorf("replay did not complete within the horizon")
				return
			}
			makespan = res.Makespan
			for _, o := range res.Outcomes {
				outcomes = append(outcomes, borgOutcome{o.Name, string(o.Phase), o.Started, o.Waiting, o.Turnaround})
			}
		})
	} else {
		outcomes, makespan, err = w.tracedReplay(rc, trace, seed)
	}
	if err != nil {
		return err
	}

	if len(outcomes) != len(trace.Jobs) {
		return fmt.Errorf("%d outcomes for %d jobs", len(outcomes), len(trace.Jobs))
	}
	d := newDigester()
	for _, o := range outcomes {
		rc.res.ops++
		if o.phase != string(api.PodSucceeded) && o.phase != string(api.PodFailed) {
			rc.res.failed++
		}
		if o.started {
			rc.res.waits = append(rc.res.waits, o.waiting.Seconds())
		}
		d.add(o.name, o.phase, o.started, int64(o.waiting), int64(o.turnaround))
	}
	rc.res.makespan = makespan.Seconds()
	rc.res.digest = d.sum()
	if rc.res.failed > 0 {
		return fmt.Errorf("%d of %d jobs not terminal", rc.res.failed, rc.res.ops)
	}
	return nil
}

// tracedReplay is Testbed.Replay over a harness-assembled stack: the same
// submissions at the same instants, the same Fig. 7 sampling, the same
// completion predicate — each call into a layer under a span.
func (borgReplay) tracedReplay(rc *repCtx, trace *borg.Trace, seed int64) ([]borgOutcome, time.Duration, error) {
	var (
		st        *simStack
		err       error
		outcomes  []borgOutcome
		makespan  time.Duration
		completed bool
	)
	jobs := trace.Jobs
	rc.timed(func() {
		st, err = newSimStack(rc.tr, stackConfig{nodes: paperTestbed(), scheduler: borgScheduler}, rc.cap)
		if err != nil {
			return
		}
		isSGX := designateSGX(len(jobs), borgSGXRatio, seed)
		start := st.clk.Now()
		submitted := 0
		for i, job := range jobs {
			st.clk.AfterFunc(job.Submit, func() {
				// CreatePod only fails on duplicate names, which the
				// naming scheme excludes.
				_ = st.createPod(tracePod(job, isSGX[i]))
				submitted++
			})
		}
		stopSampling := clock.Periodic(st.clk, borgSampling, func() {
			id := st.tr.begin(spanSample, st.step)
			st.srv.PendingPods(borgScheduler)
			st.tr.end(id)
		})
		done := func() bool {
			if submitted != len(jobs) {
				return false
			}
			live := st.srv.ListPods(func(p *api.Pod) bool {
				return p.Spec.SchedulerName == borgScheduler && !p.IsTerminal()
			})
			return len(live) == 0
		}
		completed = st.run(done, start.Add(borgHorizon))
		stopSampling()
		for _, job := range jobs {
			pod, gerr := st.srv.GetPod(traceJobName(job.ID))
			if gerr != nil {
				outcomes = append(outcomes, borgOutcome{name: traceJobName(job.ID)})
				continue
			}
			o := borgOutcome{name: pod.Name, phase: string(pod.Status.Phase)}
			if wt, ok := pod.WaitingTime(); ok {
				o.waiting, o.started = wt, true
			}
			if tt, ok := pod.TurnaroundTime(); ok {
				o.turnaround = tt
				makespan = max(makespan, job.Submit+tt)
			}
			outcomes = append(outcomes, o)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	rc.cap.detach()
	readStackCounters(rc, st)
	rc.measureLiveHeap()
	rc.timed(st.close)
	if !completed {
		return nil, 0, fmt.Errorf("traced replay did not complete within the horizon")
	}
	return outcomes, makespan, nil
}

// paperTestbed is the §VI-A cluster: a master and two 64 GiB standard
// nodes, plus two 8 GiB SGX nodes with 128 MiB of EPC.
func paperTestbed() []nodeSpec {
	return []nodeSpec{
		{name: "master", ram: 64 * resource.GiB, master: true},
		{name: "std-1", ram: 64 * resource.GiB},
		{name: "std-2", ram: 64 * resource.GiB},
		{name: "sgx-1", ram: 8 * resource.GiB, sgx: true},
		{name: "sgx-2", ram: 8 * resource.GiB, sgx: true},
	}
}

// The three helpers below restate unexported pieces of
// internal/experiments/replay.go, which the traced harness cannot call;
// digest equality with the untraced run keeps them honest.

// designateSGX deterministically marks round(ratio·n) jobs as SGX.
func designateSGX(n int, ratio float64, seed int64) []bool {
	out := make([]bool, n)
	count := int(ratio*float64(n) + 0.5)
	for i := 0; i < count; i++ {
		out[i] = true
	}
	rng := rand.New(rand.NewSource(seed + 11))
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func traceJobName(id int64) string { return fmt.Sprintf("job-%06d", id) }

// tracePod converts a trace job into a pod with §VI-B scaling: requests
// carry the assigned memory, the workload allocates the maximal usage.
func tracePod(job borg.Job, sgxJob bool) *api.Pod {
	ctr := api.Container{
		Name:  "stress-ng",
		Image: "stress-ng:vm",
		Resources: api.Requirements{
			Requests: resource.List{resource.Memory: borg.StandardMemBytes(job.AssignedMemFrac)},
		},
		Workload: api.WorkloadSpec{
			Kind:       api.WorkloadStressVM,
			Duration:   job.Duration,
			AllocBytes: borg.StandardMemBytes(job.MaxMemFrac),
		},
	}
	if sgxJob {
		pages := max(resource.PagesForBytes(borg.SGXMemBytes(job.AssignedMemFrac)), 1)
		ctr = api.Container{
			Name:  "stress-sgx",
			Image: "sebvaucher/sgx-base:stress-sgx",
			Resources: api.Requirements{
				Requests: resource.List{resource.Memory: 16 * resource.MiB, resource.EPCPages: pages},
				Limits:   resource.List{resource.EPCPages: pages},
			},
			Workload: api.WorkloadSpec{
				Kind:       api.WorkloadStressEPC,
				Duration:   job.Duration,
				AllocBytes: borg.SGXMemBytes(job.MaxMemFrac),
			},
		}
	}
	return &api.Pod{
		Name: traceJobName(job.ID),
		Spec: api.PodSpec{SchedulerName: borgScheduler, Containers: []api.Container{ctr}},
	}
}
