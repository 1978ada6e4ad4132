package experiments

import (
	"cmp"
	"fmt"
	"math/rand"
	"strconv"
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
	// they request half their advertisement as baseline, declare the
	// advertisement as limit, and burst via EAUG mid-run to their maximal
	// usage (TraceJob). Requires an SGX2 testbed.
	DynamicEPC bool
	// Horizon caps the simulation (24 h when zero).
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
	// x-axis of Fig. 9: a standard job's memory request, an SGX job's EPC
	// limit, which TraceJob sets to the advertisement in either mode.
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
// completion (or the horizon) and leaves the cluster stopped. An event
// the audit refused, the kubelets' NotReady tail included, fails the
// replay.
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
		cfg.Horizon = 24 * time.Hour
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
	r := &submitter{tb: tb, jobs: jobs, isSGX: isSGX, dynamicEPC: cfg.DynamicEPC}
	subs := r.arm()

	// Pending-queue sampling for Fig. 7.
	var series []PendingPoint
	stopSampling := clock.Periodic(tb.Clk, pendingSampleEvery, func() {
		series = append(series, tb.samplePending(start))
	})
	defer stopSampling()

	done := func() bool {
		return r.submitted == len(jobs) && tb.allTraceJobsTerminal()
	}
	completed := tb.Clk.Run(done, start.Add(cfg.Horizon))

	res := &ReplayResult{Completed: completed, PendingSeries: series}
	for i := range jobs {
		pod, err := tb.Srv.GetPod(subs[i].name)
		if err != nil {
			// Not yet submitted before the horizon: record as never
			// started.
			res.Outcomes = append(res.Outcomes, JobOutcome{
				Name: subs[i].name, SGX: isSGX[i], Submit: jobs[i].Submit,
			})
			continue
		}
		job := TraceJob(pod.Name, jobs[i], isSGX[i], cfg.DynamicEPC)
		o := JobOutcome{
			Name:         pod.Name,
			SGX:          isSGX[i],
			Phase:        pod.Status.Phase,
			Submit:       jobs[i].Submit,
			RequestBytes: cmp.Or(job.EPCLimitBytes, job.MemoryRequestBytes),
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
	if err := tb.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// submitter submits a replay's jobs, each at its offset, through one
// scratch pod: CreatePod stores a clone, so a submission allocates only
// that clone.
type submitter struct {
	tb         *Testbed
	jobs       []borg.Job
	isSGX      []bool
	dynamicEPC bool
	// pod and ctr are the scratch each submission fills.
	pod       api.Pod
	ctr       [1]api.Container
	submitted int
}

// submission is one job's arrival: the clock event armed at its offset,
// and the job's index and name. It is its event's clock.Handler.
type submission struct {
	ev   clock.Event
	r    *submitter
	job  int
	name string
}

// arm arms every job's submission in job order, so that submissions due
// at one instant fire in job order, and returns the records. The job
// names are carved from one string: the pod, the final read and the
// outcome share them.
func (r *submitter) arm() []submission {
	subs := make([]submission, len(r.jobs))
	var buf []byte
	ends := make([]int, len(r.jobs))
	for i := range r.jobs {
		buf = appendTraceJobName(buf, r.jobs[i].ID)
		ends[i] = len(buf)
	}
	names := string(buf)
	begin := 0
	for i := range r.jobs {
		s := &subs[i]
		s.r, s.job, s.name = r, i, names[begin:ends[i]]
		begin = ends[i]
		r.tb.Clk.Arm(&s.ev, r.jobs[i].Submit, s)
	}
	return subs
}

// Fire submits the job.
func (s *submission) Fire() {
	r := s.r
	job := TraceJob(s.name, r.jobs[s.job], r.isSGX[s.job], r.dynamicEPC)
	job.fill(&r.pod, &r.ctr)
	// Submit only fails on duplicate names, which the replay's naming
	// scheme excludes.
	_ = r.tb.Submit(&r.pod)
	r.submitted++
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

// traceJobName is fmt.Sprintf("job-%06d", id), byte for byte.
func traceJobName(id int64) string {
	var buf [24]byte // "job-" and the longest int64, "-9223372036854775808"
	return string(appendTraceJobName(buf[:0], id))
}

// appendTraceJobName appends traceJobName(id) to b without boxing id: the
// sign, when there is one, counts toward the six places and the zeros
// follow it.
func appendTraceJobName(b []byte, id int64) []byte {
	b = append(b, "job-"...)
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], id, 10)
	width := 6
	if d[0] == '-' {
		b = append(b, '-')
		d, width = d[1:], width-1
	}
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// deployMalicious statically places malicious containers (Fig. 11): each
// declares 1 EPC page in requests and limits but allocates a large share
// of the node's EPC for the whole experiment. Bound by hand, they carry
// no SchedulerName and no scheduler sees them.
func (tb *Testbed) deployMalicious(cfg ReplayConfig) error {
	var pod api.Pod
	var ctr [1]api.Container
	for _, node := range tb.Cfg.Nodes {
		if !node.SGX {
			continue
		}
		stolen := int64(cfg.MaliciousEPCFraction * float64(sgx.GeometryForSize(node.EPCSize).UsableBytes()))
		for i := 0; i < cfg.MaliciousPerSGXNode; i++ {
			job := Job{
				Name:            fmt.Sprintf("malicious-%s-%d", node.Name, i),
				Duration:        cfg.Horizon,
				EPCRequestBytes: resource.EPCPageSize,
				EPCUsageBytes:   stolen,
			}
			job.fill(&pod, &ctr)
			if err := tb.Srv.CreatePod(&pod); err != nil {
				return fmt.Errorf("experiments: creating malicious pod: %w", err)
			}
			if err := tb.Srv.Bind(job.Name, node.Name); err != nil {
				return fmt.Errorf("experiments: binding malicious pod: %w", err)
			}
		}
	}
	return nil
}

// samplePending computes the pending-queue request totals (Fig. 7) of
// the testbed's scheduler.
func (tb *Testbed) samplePending(start time.Time) PendingPoint {
	pt := PendingPoint{Offset: tb.Clk.Now().Sub(start)}
	tb.Srv.VisitPending(tb.Cfg.Scheduler.Name, func(pod *api.Pod) bool {
		req := pod.TotalRequests()
		pt.RequestedEPCBytes += resource.BytesForPages(req.Get(resource.EPCPages))
		pt.RequestedMemBytes += req.Get(resource.Memory)
		pt.Pending++
		return true
	})
	return pt
}

// allTraceJobsTerminal reports whether every replayed job ended; the
// malicious pods (which run for the whole horizon, and which no
// scheduler is named for) are excluded.
func (tb *Testbed) allTraceJobsTerminal() bool {
	done := true
	tb.Srv.VisitPods(func(p *api.Pod) bool {
		done = p.Spec.SchedulerName == "" || p.IsTerminal()
		return done
	})
	return done
}
