package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// Job describes one job submission: what sgxorch.Cluster.SubmitJob takes
// (as sgxorch.JobSpec) and what a trace replay submits for each trace
// record (TraceJob). Its one conversion into a pod is fill.
type Job struct {
	Name string
	// Duration is the useful runtime of the workload.
	Duration time.Duration
	// Priority orders the pending queue (higher first, FCFS within a
	// tier). When no node can host the job, the scheduler may preempt
	// strictly lower-priority jobs to make room; equal priorities never
	// preempt each other. Preempted jobs re-queue and reschedule.
	Priority int32
	// MemoryRequestBytes is the advertised standard memory.
	MemoryRequestBytes int64
	// EPCRequestBytes is the advertised enclave memory; a non-zero value
	// makes this an SGX job (it will only run on SGX nodes).
	EPCRequestBytes int64
	// MemoryUsageBytes / EPCUsageBytes are what the workload actually
	// allocates; they default to the corresponding request. Usage above
	// the EPC request is killed when limit enforcement is on (§V-D). An
	// SGX job allocates only EPC, so its MemoryUsageBytes is unused.
	MemoryUsageBytes int64
	EPCUsageBytes    int64
	// DynamicEPC runs the SGX 2 workload (§VI-G): the job holds
	// EPCRequestBytes as baseline and bursts to EPCUsageBytes mid-run
	// via dynamic EPC allocation. Requires an SGX2 node.
	DynamicEPC bool
	// EPCLimitBytes is the pod's driver-enforced EPC cap. It defaults to
	// EPCRequestBytes for static jobs (usage beyond the advertisement is
	// killed, §V-D) and to EPCUsageBytes (the burst peak) for DynamicEPC
	// jobs.
	//
	// EPCUsageBytes, EPCLimitBytes and DynamicEPC describe an SGX job:
	// a job that sets one of them without an EPCRequestBytes is refused.
	EPCLimitBytes int64
	// Gang names the job's pod group: members of the same gang schedule
	// all-or-nothing — each one binds conditionally (a permit holding its
	// capacity) until GangMinMember co-members hold permits, then the
	// whole group commits atomically; if the quorum never arrives the
	// permits roll back wholesale at the permit timeout.
	Gang string
	// GangMinMember is the quorum (defaults to 1; members of one gang
	// should agree on it).
	GangMinMember int
	// Class declares the job's workload class ("latency-sensitive",
	// "batch" or "best-effort"; empty for the default pipeline). The
	// class selects the scheduling profile the job routes through and,
	// for best-effort, marks it always preemption-eligible.
	Class string
}

// TraceJob scales one trace record into the job named name by §VI-B's
// rule: requests carry the *assigned* memory, the workload allocates the
// *maximal* usage ("the job will allocate the amount given in the maximal
// memory usage field"). A standard job's memory scales by
// borg.StandardMemBytes. An SGX job's becomes EPC, scaled by
// borg.SGXMemBytes and advertised as its request and limit, beside 16 MiB
// of ordinary memory; it advertises at least one page, so it stays an SGX
// job. With dynamicEPC (the §VI-G SGX 2 mode), an SGX job requests half
// its advertisement as baseline and keeps the whole advertisement as its
// burst limit.
func TraceJob(name string, job borg.Job, sgxJob, dynamicEPC bool) Job {
	j := Job{Name: name, Duration: job.Duration}
	if !sgxJob {
		j.MemoryRequestBytes = borg.StandardMemBytes(job.AssignedMemFrac)
		j.MemoryUsageBytes = borg.StandardMemBytes(job.MaxMemFrac)
		return j
	}
	adv := max(borg.SGXMemBytes(job.AssignedMemFrac), resource.EPCPageSize)
	j.MemoryRequestBytes = 16 * resource.MiB
	j.EPCRequestBytes, j.EPCLimitBytes = adv, adv
	j.EPCUsageBytes = borg.SGXMemBytes(job.MaxMemFrac)
	if dynamicEPC {
		j.EPCRequestBytes, j.DynamicEPC = adv/2, true
	}
	return j
}

// validate refuses a job that fill would not run as written: one without
// a name, with a negative duration or byte quantity, with EPC usage, an
// EPC limit or DynamicEPC but no EPC request, or with an unknown class.
func (j *Job) validate() error {
	switch {
	case j.Name == "":
		return errors.New("experiments: job name required")
	case min(j.MemoryRequestBytes, j.EPCRequestBytes, j.MemoryUsageBytes, j.EPCUsageBytes, j.EPCLimitBytes) < 0:
		return fmt.Errorf("experiments: job %s: negative byte quantity", j.Name)
	case j.Duration < 0:
		return fmt.Errorf("experiments: job %s: negative duration %v", j.Name, j.Duration)
	case j.EPCRequestBytes == 0 && (j.EPCUsageBytes > 0 || j.EPCLimitBytes > 0 || j.DynamicEPC):
		return fmt.Errorf("experiments: job %s: EPC usage, an EPC limit or DynamicEPC needs an EPCRequestBytes", j.Name)
	case j.Class != "" && !api.WorkloadClass(j.Class).Known():
		return fmt.Errorf("experiments: job %s: unknown workload class %q", j.Name, j.Class)
	}
	return nil
}

// fill writes the job's pod into pod and its one container into ctr[0],
// overwriting both; the pod's Containers is ctr[:], and its
// SchedulerName is left for the submitter to stamp.
func (j *Job) fill(pod *api.Pod, ctr *[1]api.Container) {
	requests := resource.List{resource.Memory: j.MemoryRequestBytes}
	var limits resource.List
	workload := api.WorkloadSpec{
		Kind:       api.WorkloadStressVM,
		Duration:   j.Duration,
		AllocBytes: cmp.Or(j.MemoryUsageBytes, j.MemoryRequestBytes),
	}
	if j.EPCRequestBytes > 0 {
		workload.Kind = api.WorkloadStressEPC
		workload.AllocBytes = cmp.Or(j.EPCUsageBytes, j.EPCRequestBytes)
		limit := cmp.Or(j.EPCLimitBytes, j.EPCRequestBytes)
		if j.DynamicEPC {
			workload.Kind = api.WorkloadStressEPCDynamic
			workload.BaseBytes = j.EPCRequestBytes
			limit = cmp.Or(j.EPCLimitBytes, workload.AllocBytes)
		}
		requests[resource.EPCPages] = resource.PagesForBytes(j.EPCRequestBytes)
		limits[resource.EPCPages] = resource.PagesForBytes(limit)
	}
	ctr[0] = api.Container{
		Name:      "workload",
		Resources: api.Requirements{Requests: requests, Limits: limits},
		Workload:  workload,
	}
	*pod = api.Pod{
		Name: j.Name,
		Spec: api.PodSpec{
			Priority:   j.Priority,
			PodGroup:   j.Gang,
			MinMember:  j.GangMinMember,
			Class:      api.WorkloadClass(j.Class),
			Containers: ctr[:],
		},
	}
}

// SubmitJob validates job and submits its pod through Submit.
func (tb *Testbed) SubmitJob(job Job) error {
	if err := job.validate(); err != nil {
		return err
	}
	var pod api.Pod
	job.fill(&pod, new([1]api.Container))
	return tb.Submit(&pod)
}
