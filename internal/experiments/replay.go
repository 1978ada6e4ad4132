package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

// ReplayConfig describes one trace replay on a testbed (§VI-B/§VI-C).
type ReplayConfig struct {
	Trace *borg.Trace
	// SGXRatio is the fraction of trace jobs designated SGX-enabled
	// ("we arbitrarily designate a subset of trace jobs as SGX-enabled"),
	// swept in 25% steps by Fig. 8.
	SGXRatio float64
	// Seed drives the deterministic SGX designation.
	Seed int64
	// MaliciousPerSGXNode deploys that many malicious containers per SGX
	// node (Fig. 11: "as many of them as there are SGX-enabled nodes").
	MaliciousPerSGXNode int
	// MaliciousEPCFraction is how much of a node's usable EPC each
	// malicious container actually allocates (0.25 / 0.50 in Fig. 11)
	// while declaring a single page.
	MaliciousEPCFraction float64
	// DynamicEPC converts SGX jobs to the SGX 2 dynamic workload (§VI-G):
	// they request half their peak as baseline, declare the peak as
	// limit, and burst via EAUG mid-run. Requires an SGX2 testbed.
	DynamicEPC bool
	// Horizon caps the simulation (12 h when zero).
	Horizon time.Duration
}

// pendingSampleEvery is the period at which a replay samples the pending
// queue for Fig. 7.
const pendingSampleEvery = 30 * time.Second

// JobOutcome is the per-job result of a replay.
type JobOutcome struct {
	Name  string
	SGX   bool
	Phase api.PodPhase
	// Submit is the submission offset from replay start.
	Submit time.Duration
	// Waiting is submission → workload start (§VI-E). Valid when Started
	// is true.
	Waiting time.Duration
	Started bool
	// Turnaround is submission → termination (§VI-E).
	Turnaround time.Duration
	// RequestBytes is the advertised memory after §VI-B scaling — the
	// x-axis of Fig. 9.
	RequestBytes int64
}

// PendingPoint samples the pending queue: the Fig. 7 y-axis is the total
// memory requested by pods in pending state.
type PendingPoint struct {
	Offset time.Duration
	// RequestedEPCBytes sums advertised EPC of pending SGX pods.
	RequestedEPCBytes int64
	// RequestedMemBytes sums advertised standard memory of pending pods.
	RequestedMemBytes int64
	Pending           int
}

// ReplayResult aggregates a replay.
type ReplayResult struct {
	Outcomes []JobOutcome
	// Completed reports whether every job terminated before the horizon.
	Completed bool
	// Makespan is replay start → last job termination.
	Makespan time.Duration
	// PendingSeries is the Fig. 7 time series.
	PendingSeries []PendingPoint
	// Failed counts jobs killed (limit enforcement, OOM).
	Failed int
}

// WaitingSeconds returns waiting times (s) of jobs that started, filtered
// by SGX designation when filterSGX is non-nil.
func (r *ReplayResult) WaitingSeconds(filterSGX *bool) []float64 {
	var out []float64
	for _, o := range r.Outcomes {
		if !o.Started {
			continue
		}
		if filterSGX != nil && o.SGX != *filterSGX {
			continue
		}
		out = append(out, o.Waiting.Seconds())
	}
	return out
}

// TotalTurnaround sums job turnarounds — the Fig. 10 metric.
func (r *ReplayResult) TotalTurnaround() time.Duration {
	var sum time.Duration
	for _, o := range r.Outcomes {
		sum += o.Turnaround
	}
	return sum
}

// Replay runs a trace through the testbed and collects outcomes. The
// testbed must be freshly built; Replay drives its simulation clock to
// completion (or the horizon) and leaves the cluster stopped.
func (tb *Testbed) Replay(cfg ReplayConfig) (*ReplayResult, error) {
	// A refused replay leaves the cluster stopped too.
	defer tb.Close()
	if cfg.Trace == nil || cfg.Trace.Len() == 0 {
		return nil, fmt.Errorf("experiments: empty trace")
	}
	if !(cfg.SGXRatio >= 0 && cfg.SGXRatio <= 1) { // NaN included
		return nil, fmt.Errorf("experiments: SGX ratio %v outside [0,1]", cfg.SGXRatio)
	}
	if cfg.MaliciousPerSGXNode < 0 {
		return nil, fmt.Errorf("experiments: negative MaliciousPerSGXNode %d", cfg.MaliciousPerSGXNode)
	}
	if !(cfg.MaliciousEPCFraction >= 0 && cfg.MaliciousEPCFraction <= 1) {
		return nil, fmt.Errorf("experiments: malicious EPC fraction %v outside [0,1]", cfg.MaliciousEPCFraction)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 12 * time.Hour
	}

	jobs := cfg.Trace.Jobs
	isSGX := designateSGX(len(jobs), cfg.SGXRatio, cfg.Seed)

	// Fig. 11 malicious containers: statically bound one per SGX node
	// (they are the adversary's pods, not scheduler workload), declaring
	// one EPC page while allocating a large share.
	if cfg.MaliciousPerSGXNode > 0 {
		if err := tb.deployMalicious(cfg); err != nil {
			return nil, err
		}
	}

	start := tb.Clk.Now()
	submitted := 0
	for i, job := range jobs {
		i, job := i, job
		tb.Clk.AfterFunc(job.Submit, func() {
			pod := tracePod(job, isSGX[i], cfg.DynamicEPC)
			// CreatePod only fails on duplicate names, which the
			// replay's naming scheme excludes.
			_ = tb.Srv.CreatePod(pod)
			submitted++
		})
	}

	// Pending-queue sampling for Fig. 7.
	var series []PendingPoint
	stopSampling := clock.Periodic(tb.Clk, pendingSampleEvery, func() {
		series = append(series, tb.samplePending(start))
	})
	defer stopSampling()

	done := func() bool {
		return submitted == len(jobs) && tb.allTraceJobsTerminal()
	}
	completed := tb.Clk.Run(done, start.Add(cfg.Horizon))

	res := &ReplayResult{Completed: completed, PendingSeries: series}
	for i := range jobs {
		pod, err := tb.Srv.GetPod(traceJobName(jobs[i].ID))
		if err != nil {
			// Not yet submitted before the horizon: record as never
			// started.
			res.Outcomes = append(res.Outcomes, JobOutcome{
				Name: traceJobName(jobs[i].ID), SGX: isSGX[i], Submit: jobs[i].Submit,
			})
			continue
		}
		o := JobOutcome{
			Name:         pod.Name,
			SGX:          isSGX[i],
			Phase:        pod.Status.Phase,
			Submit:       jobs[i].Submit,
			RequestBytes: advertisedBytes(jobs[i], isSGX[i]),
		}
		if w, ok := pod.WaitingTime(); ok {
			o.Waiting, o.Started = w, true
		}
		if tt, ok := pod.TurnaroundTime(); ok {
			o.Turnaround = tt
			if end := jobs[i].Submit + tt; end > res.Makespan {
				res.Makespan = end
			}
		}
		if pod.Status.Phase == api.PodFailed {
			res.Failed++
		}
		res.Outcomes = append(res.Outcomes, o)
	}
	return res, nil
}

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

// tracePod converts a trace job into a pod spec with §VI-B scaling:
// requests carry the *assigned* memory, the workload allocates the
// *maximal* usage ("the job will allocate the amount given in the maximal
// memory usage field"). With dynamicEPC (the §VI-G SGX 2 mode), SGX jobs
// request half their advertisement as steady-state baseline and declare
// the full advertisement as their burst limit.
func tracePod(job borg.Job, sgxJob, dynamicEPC bool) *api.Pod {
	var ctr api.Container
	if sgxJob {
		advBytes := borg.SGXMemBytes(job.AssignedMemFrac)
		reqPages := resource.PagesForBytes(advBytes)
		if reqPages < 1 {
			reqPages = 1
		}
		workload := api.WorkloadSpec{
			Kind:       api.WorkloadStressEPC,
			Duration:   job.Duration,
			AllocBytes: borg.SGXMemBytes(job.MaxMemFrac),
		}
		limitPages := reqPages
		if dynamicEPC {
			workload.Kind = api.WorkloadStressEPCDynamic
			workload.BaseBytes = workload.AllocBytes / 2
			// Baseline reserved as device items; peak bounded by the
			// driver limit.
			reqPages = resource.PagesForBytes(advBytes / 2)
			if reqPages < 1 {
				reqPages = 1
			}
		}
		ctr = api.Container{
			Name:  "stress-sgx",
			Image: "sebvaucher/sgx-base:stress-sgx",
			Resources: api.Requirements{
				Requests: resource.List{
					resource.Memory:   16 * resource.MiB,
					resource.EPCPages: reqPages,
				},
				Limits: resource.List{resource.EPCPages: limitPages},
			},
			Workload: workload,
		}
	} else {
		ctr = api.Container{
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
	}
	return &api.Pod{
		Name: traceJobName(job.ID),
		Spec: api.PodSpec{
			SchedulerName: SchedulerName,
			Containers:    []api.Container{ctr},
		},
	}
}

// advertisedBytes is the scaled advertised memory (Fig. 9's x-axis).
func advertisedBytes(job borg.Job, sgxJob bool) int64 {
	if sgxJob {
		return borg.SGXMemBytes(job.AssignedMemFrac)
	}
	return borg.StandardMemBytes(job.AssignedMemFrac)
}

// deployMalicious statically places malicious containers (Fig. 11): each
// declares 1 EPC page in requests and limits but allocates a large share
// of the node's EPC for the whole experiment.
func (tb *Testbed) deployMalicious(cfg ReplayConfig) error {
	for _, node := range tb.Cfg.Stack.Nodes {
		if node.EPCSize == 0 {
			continue
		}
		allocBytes := int64(cfg.MaliciousEPCFraction * float64(sgx.GeometryForSize(node.EPCSize).UsableBytes()))
		for i := 0; i < cfg.MaliciousPerSGXNode; i++ {
			name := fmt.Sprintf("malicious-%s-%d", node.Name, i)
			pod := &api.Pod{
				Name: name,
				Spec: api.PodSpec{
					// Statically bound: no SchedulerName needed.
					Containers: []api.Container{{
						Name: "malicious",
						Resources: api.Requirements{
							Requests: resource.List{resource.EPCPages: 1},
							Limits:   resource.List{resource.EPCPages: 1},
						},
						Workload: api.WorkloadSpec{
							Kind:       api.WorkloadStressEPC,
							Duration:   cfg.Horizon,
							AllocBytes: allocBytes,
						},
					}},
				},
			}
			if err := tb.Srv.CreatePod(pod); err != nil {
				return fmt.Errorf("experiments: creating malicious pod: %w", err)
			}
			if err := tb.Srv.Bind(name, node.Name); err != nil {
				return fmt.Errorf("experiments: binding malicious pod: %w", err)
			}
		}
	}
	return nil
}

// samplePending computes the pending-queue request totals (Fig. 7).
func (tb *Testbed) samplePending(start time.Time) PendingPoint {
	pt := PendingPoint{Offset: tb.Clk.Now().Sub(start)}
	tb.Srv.VisitPending(SchedulerName, func(pod *api.Pod) bool {
		req := pod.TotalRequests()
		pt.RequestedEPCBytes += resource.BytesForPages(req.Get(resource.EPCPages))
		pt.RequestedMemBytes += req.Get(resource.Memory)
		pt.Pending++
		return true
	})
	return pt
}

// allTraceJobsTerminal reports whether every replayed job ended; the
// malicious pods (which run for the whole horizon) are excluded.
func (tb *Testbed) allTraceJobsTerminal() bool {
	done := true
	tb.Srv.VisitPods(func(p *api.Pod) bool {
		done = p.Spec.SchedulerName != SchedulerName || p.IsTerminal()
		return done
	})
	return done
}
