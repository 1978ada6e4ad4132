// Package api defines the Kubernetes-like object model the orchestrator
// substrate exposes: nodes, pods, resource requirements and lifecycle
// phases. The paper's components interact with Kubernetes exclusively
// through its public API (§V); this package is that API surface.
package api

import (
	"fmt"
	"slices"
	"time"

	"github.com/sgxorch/sgxorch/internal/resource"
)

// PodPhase is the coarse lifecycle state of a pod.
type PodPhase string

// Pod phases, mirroring Kubernetes semantics.
const (
	// PodPending: accepted by the API server, waiting in the scheduler
	// queue or being started by a kubelet.
	PodPending PodPhase = "Pending"
	// PodRunning: the workload has been launched on a node.
	PodRunning PodPhase = "Running"
	// PodSucceeded: the workload finished normally.
	PodSucceeded PodPhase = "Succeeded"
	// PodFailed: the workload was denied or killed (e.g. enclave init
	// denial under EPC limit enforcement, §V-D).
	PodFailed PodPhase = "Failed"
)

// WorkloadKind selects the simulated container behaviour, standing in for
// the container images of §VI-C.
type WorkloadKind int

// Workload kinds.
const (
	// WorkloadSleep does nothing for the duration (control workload).
	WorkloadSleep WorkloadKind = iota + 1
	// WorkloadStressVM allocates standard virtual memory, like
	// STRESS-NG's vm stressor (§VI-C).
	WorkloadStressVM
	// WorkloadStressEPC allocates EPC pages inside an enclave, like
	// STRESS-SGX's EPC stressor (§VI-C).
	WorkloadStressEPC
	// WorkloadStressEPCDynamic is the SGX 2 variant (§VI-G): it commits a
	// baseline at startup, bursts to the full allocation mid-run via
	// dynamic EPC allocation, and trims back before finishing. It
	// requires SGX 2-capable nodes.
	WorkloadStressEPCDynamic
)

// String renders the workload kind.
func (k WorkloadKind) String() string {
	switch k {
	case WorkloadSleep:
		return "sleep"
	case WorkloadStressVM:
		return "stress-vm"
	case WorkloadStressEPC:
		return "stress-epc"
	case WorkloadStressEPCDynamic:
		return "stress-epc-dynamic"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(k))
	}
}

// WorkloadSpec describes what the simulated container does once started.
type WorkloadSpec struct {
	Kind WorkloadKind
	// Duration is the useful runtime from the trace; total pod runtime
	// additionally includes SGX startup latency (§VI-D).
	Duration time.Duration
	// AllocBytes is the memory the workload actually allocates — the
	// trace's "maximal memory usage", which may legitimately differ from
	// the advertised request ("the job will allocate the amount given in
	// the maximal memory usage field", §VI-B). For dynamic EPC workloads
	// this is the burst peak.
	AllocBytes int64
	// BaseBytes is the steady-state allocation of dynamic EPC workloads
	// (defaults to half of AllocBytes when zero). Ignored by the other
	// kinds.
	BaseBytes int64
}

// WorkloadClass partitions pods into scheduling classes. A class selects
// the scheduling profile a pending pod is routed through — plugins, score
// weights, candidate-sampling bounds and preemption eligibility — without
// changing what the pod runs. The empty class is the default: such pods
// take the scheduler's single configured pipeline, exactly as before
// classes existed.
type WorkloadClass string

// The workload classes.
const (
	// ClassUnspecified routes the pod through the scheduler's default
	// pipeline — bit-identical to the pre-class behaviour.
	ClassUnspecified WorkloadClass = ""
	// ClassLatencySensitive marks serving-style jobs that must start
	// fast: they may preempt lower tiers and their candidate search is
	// never sampled below a raised feasibility floor.
	ClassLatencySensitive WorkloadClass = "latency-sensitive"
	// ClassBatch marks throughput-style jobs (training, MPI ranks): they
	// bin-pack to preserve contiguous headroom and carry gang support.
	ClassBatch WorkloadClass = "batch"
	// ClassBestEffort marks preemptible filler: it spreads across the
	// fleet, never preempts anything, and is always preemption-eligible —
	// a higher class may evict it regardless of priority tiers.
	ClassBestEffort WorkloadClass = "best-effort"
)

// Known reports whether c is one of the three defined classes (the empty
// unspecified class is not "known": it names the absence of a class).
func (c WorkloadClass) Known() bool {
	switch c {
	case ClassLatencySensitive, ClassBatch, ClassBestEffort:
		return true
	}
	return false
}

// NumClasses is the number of class slots: the unspecified default and
// the three defined classes.
const NumClasses = 4

// Classes lists the classes in slot order — the inverse of Slot, and the
// order every per-class table (scheduler stats, pipelines, telemetry
// series) is laid out in. Read-only.
var Classes = [NumClasses]WorkloadClass{
	ClassUnspecified, ClassLatencySensitive, ClassBatch, ClassBestEffort,
}

// Slot is the class's dense index into per-class tables. Unknown strings
// fold into slot 0, the unspecified default.
func (c WorkloadClass) Slot() int {
	switch c {
	case ClassLatencySensitive:
		return 1
	case ClassBatch:
		return 2
	case ClassBestEffort:
		return 3
	}
	return 0
}

// Label is the class's telemetry label value. The unspecified default
// gets an explicit "unclassified": an empty label value would be
// unaddressable in label-keyed queries, and series names depend on the
// string.
func (c WorkloadClass) Label() string {
	if c.Known() {
		return string(c)
	}
	return "unclassified"
}

// Requirements carries the user-declared resource requests and limits
// (§V-A: "end-users must declare that their SGX-enabled pods use some
// amount of the SGX resource" via requests and limits).
type Requirements struct {
	Requests resource.List
	Limits   resource.List
}

// Container is one container of a pod.
type Container struct {
	Name      string
	Image     string
	Resources Requirements
	Workload  WorkloadSpec
}

// PodSpec is the user-provided part of a pod.
type PodSpec struct {
	// SchedulerName selects which of the concurrently deployed schedulers
	// handles this pod (§V-B: "each pod deployed to the cluster can
	// specify which scheduler it requires").
	SchedulerName string
	// NodeName is set by a scheduler binding.
	NodeName   string
	Containers []Container
	// Priority orders the pending queue (higher schedules first; FCFS
	// within a tier) and gates preemption: a pod may only evict strictly
	// lower-priority pods, and equal priorities never preempt each other.
	// The zero value is the default tier, mirroring Kubernetes'
	// PriorityClass semantics.
	Priority int32
	// PodGroup names the gang this pod belongs to. Members of one group
	// schedule all-or-nothing: they hold conditional permits instead of
	// binding individually, commit together once MinMember of them hold
	// permits, and are preempted as a unit (a whole gang is evicted or
	// none of it). Empty means the pod schedules alone — the default.
	// Members of one gang should share a Priority: the pending queue only
	// coalesces gang members within a priority tier.
	PodGroup string
	// MinMember is the gang quorum: how many members must hold permits
	// before any of them binds (distributed training/MPI jobs deadlock
	// under partial placement). Meaningful only when PodGroup is set;
	// values below 1 are treated as 1.
	MinMember int
	// Class is the pod's explicit workload class. When set to a known
	// class, a class-aware scheduler routes the pod through that class's
	// profile; the empty (or unknown) value leaves classification to the
	// scheduler's classifier — or, with inference off, to the default
	// pipeline. The explicit class is also what marks a bound pod
	// always-preemptible (best-effort): eviction eligibility must be
	// deterministic cluster-wide, so it keys off this declared field,
	// never off per-scheduler inference.
	Class WorkloadClass
}

// Classified reports whether the pod declares a known workload class.
func (s *PodSpec) Classified() bool { return s.Class.Known() }

// WorkloadClass returns the declared class, folding unknown strings into
// ClassUnspecified so downstream consumers only ever see the four defined
// values.
func (s *PodSpec) WorkloadClass() WorkloadClass {
	if s.Class.Known() {
		return s.Class
	}
	return ClassUnspecified
}

// InGang reports whether the pod schedules as part of a pod group.
func (s *PodSpec) InGang() bool { return s.PodGroup != "" }

// GangMinMember returns the effective quorum (floored at 1) for gang
// pods, and 0 for solo pods.
func (s *PodSpec) GangMinMember() int {
	if s.PodGroup == "" {
		return 0
	}
	if s.MinMember < 1 {
		return 1
	}
	return s.MinMember
}

// PodStatus is the system-maintained part of a pod.
type PodStatus struct {
	Phase   PodPhase
	Reason  string
	Message string

	// SubmittedAt is when the API server accepted the pod.
	SubmittedAt time.Time
	// ScheduledAt is when a scheduler bound the pod to a node.
	ScheduledAt time.Time
	// StartedAt is when the kubelet launched the workload. The paper's
	// "waiting time" is StartedAt - SubmittedAt (§VI-E).
	StartedAt time.Time
	// FinishedAt is when the workload terminated. The paper's
	// "turnaround time" is FinishedAt - SubmittedAt (§VI-E).
	FinishedAt time.Time
}

// Pod is a schedulable unit (one or more co-located containers).
type Pod struct {
	Name string
	// UID is the serial the API server assigned when it stored the pod,
	// from 1 up; 0 means unassigned, and CreatePod assigns the next one.
	// The kubelet names the pod's cgroup after it (internal/cgroup).
	UID    int64
	Labels map[string]string
	Spec   PodSpec
	Status PodStatus
}

// TotalRequests sums resource requests across containers.
func (p *Pod) TotalRequests() resource.List {
	var total resource.List
	for i := range p.Spec.Containers {
		total = total.Add(p.Spec.Containers[i].Resources.Requests)
	}
	return total
}

// TotalLimits sums resource limits across containers.
func (p *Pod) TotalLimits() resource.List {
	var total resource.List
	for i := range p.Spec.Containers {
		total = total.Add(p.Spec.Containers[i].Resources.Limits)
	}
	return total
}

// IsSGX reports whether the pod requests any share of the EPC resource,
// which is how the stack distinguishes SGX-enabled jobs (§V-A).
func (p *Pod) IsSGX() bool { return p.TotalRequests()[resource.EPCPages] > 0 }

// IsTerminal reports whether the pod reached a final phase.
func (p *Pod) IsTerminal() bool {
	return p.Status.Phase == PodSucceeded || p.Status.Phase == PodFailed
}

// WaitingTime returns the paper's §VI-E waiting time: submission to
// workload start. It returns (0, false) until the pod has started.
func (p *Pod) WaitingTime() (time.Duration, bool) {
	if p.Status.StartedAt.IsZero() {
		return 0, false
	}
	return p.Status.StartedAt.Sub(p.Status.SubmittedAt), true
}

// TurnaroundTime returns the paper's §VI-E turnaround time: submission to
// termination. It returns (0, false) until the pod is terminal.
func (p *Pod) TurnaroundTime() (time.Duration, bool) {
	if p.Status.FinishedAt.IsZero() {
		return 0, false
	}
	return p.Status.FinishedAt.Sub(p.Status.SubmittedAt), true
}

// Clone deep-copies the pod.
func (p *Pod) Clone() *Pod {
	out := *p
	out.Labels = cloneStringMap(p.Labels)
	out.Spec.Containers = slices.Clone(p.Spec.Containers)
	return &out
}

// Node is one cluster machine as seen by the orchestrator.
type Node struct {
	Name   string
	Labels map[string]string
	// Capacity is the node's total resources; Allocatable is what pods
	// may consume. The device plugin extends Allocatable with one item
	// per EPC page (§V-A).
	Capacity    resource.List
	Allocatable resource.List
	// Unschedulable excludes the node from scheduling (the Kubernetes
	// master in the paper's testbed runs no jobs, §VI-A).
	Unschedulable bool
	Ready         bool
}

// HasSGX reports whether the node advertises EPC page resources.
func (n *Node) HasSGX() bool {
	return n.Allocatable.Get(resource.EPCPages) > 0
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	out := *n
	out.Labels = cloneStringMap(n.Labels)
	return &out
}

func cloneStringMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
