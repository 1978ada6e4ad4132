package sgxorch

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/experiments"
	"github.com/sgxorch/sgxorch/internal/influxql"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// Byte-size helpers re-exported for cluster and job specifications.
const (
	KiB = resource.KiB
	MiB = resource.MiB
	GiB = resource.GiB
)

// DefaultEPCSize is the PRM size of current SGX hardware (128 MiB, §II).
const DefaultEPCSize = experiments.DefaultEPC

// Policy selects the scheduler's placement strategy (§IV).
type Policy string

// Available policies.
const (
	// PolicyBinpack fills nodes one after another in a stable order,
	// keeping SGX nodes as the last resort for standard jobs.
	PolicyBinpack Policy = "binpack"
	// PolicySpread evens load out by minimising the standard deviation
	// of node loads.
	PolicySpread Policy = "spread"
	// PolicyLeastRequested mirrors Kubernetes' default scheduler:
	// request-only accounting, no SGX awareness. Useful as a baseline.
	PolicyLeastRequested Policy = "least-requested"
)

// Workload classes jobs can declare (JobSpec.Class). A class routes the
// job through its own scheduling profile — pipeline, sampling bounds and
// preemption rights — without changing what it runs:
//
//   - ClassLatencySensitive: serving-style jobs; usage-aware scoring,
//     never sampled below a raised feasibility floor, may preempt lower
//     tiers and best-effort jobs.
//   - ClassBatch: throughput jobs; bin-packed (SGX nodes last), gang
//     support rides along, never preempts.
//   - ClassBestEffort: preemptible filler; spread across the fleet,
//     never preempts, and always preemption-eligible regardless of
//     priority.
//
// A job's class is the one it declares; jobs with no class take the
// cluster's configured Policy.
const (
	ClassLatencySensitive = string(api.ClassLatencySensitive)
	ClassBatch            = string(api.ClassBatch)
	ClassBestEffort       = string(api.ClassBestEffort)
)

func (p Policy) corePolicy() (core.Policy, error) {
	switch p {
	case PolicyBinpack, "":
		return core.Binpack{}, nil
	case PolicySpread:
		return core.Spread{}, nil
	case PolicyLeastRequested:
		return core.LeastRequested{}, nil
	default:
		return nil, fmt.Errorf("sgxorch: unknown policy %q", p)
	}
}

// NodeSpec describes one cluster machine.
type NodeSpec struct {
	Name      string
	RAMBytes  int64
	CPUMillis int64
	// SGX equips the machine with an SGX package and driver; EPCSize
	// defaults to DefaultEPCSize.
	SGX     bool
	EPCSize int64
	// SGX2 additionally enables dynamic EPC memory management (EDMM,
	// §VI-G), required by DynamicEPC jobs. Implies SGX.
	SGX2 bool
	// Master marks the node unschedulable (control plane only).
	Master bool
}

// ClusterConfig assembles a cluster.
type ClusterConfig struct {
	// Nodes lists the machines. When empty, the paper's §VI-A testbed is
	// used: one master and two 64 GiB standard nodes, plus two 8 GiB SGX
	// nodes with 128 MiB EPC.
	Nodes []NodeSpec
	// Policy selects the placement strategy (binpack by default).
	Policy Policy
	// DisableMetrics turns off usage-aware scheduling over the
	// monitoring pipeline (the paper's scheduler, on by default): the
	// scheduler then reproduces the request-only accounting of the
	// default Kubernetes scheduler.
	DisableMetrics bool
	// DisableEnforcement turns off driver-level EPC limit enforcement
	// (§V-D), as in Fig. 11's "limits disabled" runs.
	DisableEnforcement bool
	// SchedulerInterval is the scheduling period (core.DefaultInterval,
	// 5 s, when zero).
	SchedulerInterval time.Duration
	// DisableTelemetry turns the cluster's observability plane off: no
	// metrics registry, no pass-trace ring, no lifecycle tracker, no
	// self-scrape into the TSDB. With telemetry disabled every
	// instrumentation site in the scheduler and API server reduces to a
	// nil check — zero allocations and zero clock reads added.
	DisableTelemetry bool
}

// PaperTestbedNodes returns the §VI-A cluster shape.
func PaperTestbedNodes() []NodeSpec {
	var nodes []NodeSpec
	for _, n := range experiments.PaperTestbed() {
		nodes = append(nodes, NodeSpec{
			Name: n.Name, RAMBytes: n.RAMBytes, CPUMillis: n.CPUMillis,
			SGX: n.EPCSize > 0, EPCSize: n.EPCSize, SGX2: n.SGX2, Master: n.Master,
		})
	}
	return nodes
}

// Cluster is a running simulated cluster: API server, kubelets, device
// plugins and monitoring plus one SGX-aware scheduler with its gang
// director — the testbed every experiment of internal/experiments runs
// on, built by the same experiments.NewTestbed.
type Cluster struct {
	tb *experiments.Testbed
}

// schedulerName is the identity jobs submitted through Cluster use.
const schedulerName = "sgxorch"

// NewCluster validates cfg and starts the cluster on an
// experiments.Testbed. Time is simulated: use AdvanceTime or WaitAll to
// make progress.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	policy, err := cfg.Policy.corePolicy()
	if err != nil {
		return nil, err
	}
	nodes := cfg.Nodes
	if len(nodes) == 0 {
		nodes = PaperTestbedNodes()
	}
	// The whole node list is checked before anything is built, so a bad
	// entry never leaves an earlier node's kubelet started and subscribed.
	seen := make(map[string]bool, len(nodes))
	for _, spec := range nodes {
		switch {
		case spec.Name == "":
			return nil, errors.New("sgxorch: node name required")
		case seen[spec.Name]:
			return nil, fmt.Errorf("sgxorch: duplicate node %q", spec.Name)
		case spec.RAMBytes <= 0:
			return nil, fmt.Errorf("sgxorch: node %s: RAMBytes %d must be positive", spec.Name, spec.RAMBytes)
		case spec.CPUMillis < 0:
			return nil, fmt.Errorf("sgxorch: node %s: negative CPUMillis %d", spec.Name, spec.CPUMillis)
		case spec.EPCSize < 0:
			return nil, fmt.Errorf("sgxorch: node %s: negative EPCSize %d", spec.Name, spec.EPCSize)
		}
		seen[spec.Name] = true
	}

	tbNodes := make([]experiments.Node, len(nodes))
	for i, spec := range nodes {
		tbNodes[i] = experiments.Node{
			Name: spec.Name, RAMBytes: spec.RAMBytes, CPUMillis: spec.CPUMillis,
			SGX2: spec.SGX2, Master: spec.Master,
		}
		if spec.SGX || spec.SGX2 {
			tbNodes[i].EPCSize = spec.EPCSize
			if spec.EPCSize == 0 {
				tbNodes[i].EPCSize = DefaultEPCSize
			}
		}
	}

	tcfg := experiments.TestbedConfig{
		Nodes:          tbNodes,
		NoEnforcement:  cfg.DisableEnforcement,
		ScrapeInterval: monitor.DefaultScrapeInterval,
		Scheduler: core.Config{
			Name:       schedulerName,
			Policy:     policy,
			Interval:   cfg.SchedulerInterval,
			UseMetrics: !cfg.DisableMetrics,
		},
		Gangs: true,
	}
	if !cfg.DisableTelemetry {
		tcfg.Scheduler.Telemetry = telemetry.New()
		tcfg.Scheduler.Trace = telemetry.NewTraceRing(0)
	}
	tb, err := experiments.NewTestbed(tcfg)
	if err != nil {
		return nil, fmt.Errorf("sgxorch: %w", err)
	}
	return &Cluster{tb: tb}, nil
}

// Close stops every component. The cluster is unusable afterwards;
// closing it again is a no-op.
func (c *Cluster) Close() { c.tb.Close() }

// Now returns the cluster's current simulated time.
func (c *Cluster) Now() time.Time { return c.tb.Clk.Now() }

// AdvanceTime advances the simulation by d, running every scheduled event
// (scheduler passes, monitoring scrapes, workload completions) in order.
func (c *Cluster) AdvanceTime(d time.Duration) { c.tb.Clk.Advance(d) }

// WaitAll advances simulated time until every submitted job is terminal,
// or until max elapses. It reports whether all jobs finished.
func (c *Cluster) WaitAll(max time.Duration) bool {
	return c.tb.Clk.Run(c.tb.Srv.AllTerminal, c.tb.Clk.Now().Add(max))
}

// JobSpec describes one job submission.
type JobSpec struct {
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
	// the EPC request is killed when limit enforcement is on (§V-D).
	MemoryUsageBytes int64
	EPCUsageBytes    int64
	// DynamicEPC runs the SGX 2 workload (§VI-G): the job holds
	// EPCRequestBytes as baseline and bursts to EPCUsageBytes mid-run
	// via dynamic EPC allocation. Requires an SGX2 node and a non-zero
	// EPCRequestBytes: SubmitJob refuses a DynamicEPC job without one.
	DynamicEPC bool
	// EPCLimitBytes is the pod's driver-enforced EPC cap. It defaults to
	// EPCRequestBytes for static jobs (usage beyond the advertisement is
	// killed, §V-D) and to EPCUsageBytes (the burst peak) for DynamicEPC
	// jobs.
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
	// Class declares the job's workload class (ClassLatencySensitive,
	// ClassBatch or ClassBestEffort; empty for the default pipeline).
	// The class selects the scheduling profile the job routes through
	// and, for ClassBestEffort, marks it always preemption-eligible.
	Class string
}

// SubmitJob queues a job with the cluster's scheduler.
func (c *Cluster) SubmitJob(spec JobSpec) error {
	if spec.Name == "" {
		return errors.New("sgxorch: job name required")
	}
	if spec.Duration < 0 {
		return fmt.Errorf("sgxorch: negative duration %v", spec.Duration)
	}
	for _, b := range []int64{spec.MemoryRequestBytes, spec.EPCRequestBytes, spec.MemoryUsageBytes, spec.EPCUsageBytes, spec.EPCLimitBytes} {
		if b < 0 {
			return fmt.Errorf("sgxorch: job %s: negative byte quantity %d", spec.Name, b)
		}
	}
	if spec.DynamicEPC && spec.EPCRequestBytes == 0 {
		return fmt.Errorf("sgxorch: job %s: DynamicEPC needs an EPCRequestBytes baseline", spec.Name)
	}
	class := api.WorkloadClass(spec.Class)
	if spec.Class != "" && !class.Known() {
		return fmt.Errorf("sgxorch: unknown workload class %q", spec.Class)
	}
	var requests, limits resource.List
	if spec.MemoryRequestBytes > 0 {
		requests[resource.Memory] = spec.MemoryRequestBytes
	}
	var workload api.WorkloadSpec
	if spec.EPCRequestBytes > 0 {
		usage := spec.EPCUsageBytes
		if usage == 0 {
			usage = spec.EPCRequestBytes
		}
		kind := api.WorkloadStressEPC
		var base int64
		limitBytes := spec.EPCLimitBytes
		if spec.DynamicEPC {
			kind = api.WorkloadStressEPCDynamic
			base = spec.EPCRequestBytes
			if limitBytes == 0 {
				limitBytes = usage
			}
		}
		if limitBytes == 0 {
			limitBytes = spec.EPCRequestBytes
		}
		requests[resource.EPCPages] = resource.PagesForBytes(spec.EPCRequestBytes)
		limits[resource.EPCPages] = resource.PagesForBytes(limitBytes)
		workload = api.WorkloadSpec{
			Kind:       kind,
			Duration:   spec.Duration,
			AllocBytes: usage,
			BaseBytes:  base,
		}
	} else {
		usage := spec.MemoryUsageBytes
		if usage == 0 {
			usage = spec.MemoryRequestBytes
		}
		workload = api.WorkloadSpec{
			Kind:       api.WorkloadStressVM,
			Duration:   spec.Duration,
			AllocBytes: usage,
		}
	}
	pod := &api.Pod{
		Name: spec.Name,
		Spec: api.PodSpec{
			Priority:  spec.Priority,
			PodGroup:  spec.Gang,
			MinMember: spec.GangMinMember,
			Class:     class,
			Containers: []api.Container{{
				Name:      "workload",
				Resources: api.Requirements{Requests: requests, Limits: limits},
				Workload:  workload,
			}},
		},
	}
	return c.tb.Submit(pod)
}

// JobStatus reports one job's observable state.
type JobStatus struct {
	Name string
	// Phase is Pending, Running, Succeeded or Failed.
	Phase string
	// Node is where the job was placed (empty while pending).
	Node string
	// Reason explains failures (e.g. EPC limit denial).
	Reason string
	// Waiting is submission → start (§VI-E); valid when Started.
	Waiting time.Duration
	Started bool
	// Turnaround is submission → termination; valid when Finished.
	Turnaround time.Duration
	Finished   bool
}

// JobStatus returns the state of a submitted job.
func (c *Cluster) JobStatus(name string) (JobStatus, error) {
	pod, err := c.tb.Srv.GetPod(name)
	if err != nil {
		return JobStatus{}, err
	}
	st := JobStatus{
		Name:   pod.Name,
		Phase:  string(pod.Status.Phase),
		Node:   pod.Spec.NodeName,
		Reason: pod.Status.Reason,
	}
	if w, ok := pod.WaitingTime(); ok {
		st.Waiting, st.Started = w, true
	}
	if tt, ok := pod.TurnaroundTime(); ok {
		st.Turnaround, st.Finished = tt, true
	}
	return st, nil
}

// NodeStatus reports one node's capacity and live usage.
type NodeStatus struct {
	Name string
	SGX  bool
	// Unschedulable marks control-plane nodes.
	Unschedulable bool
	MemoryBytes   int64
	MemoryUsed    int64
	// EPCPages / EPCPagesFree are the device-plugin page items (zero on
	// non-SGX nodes).
	EPCPages     int64
	EPCPagesFree int64
}

// Nodes lists the cluster's nodes with live usage.
func (c *Cluster) Nodes() []NodeStatus {
	var out []NodeStatus
	for _, kl := range c.tb.Kubelets {
		m := kl.Machine()
		st := NodeStatus{
			Name:        m.Name(),
			MemoryBytes: m.RAMBytes(),
			MemoryUsed:  m.RAMUsed(),
		}
		if node, err := c.tb.Srv.GetNode(m.Name()); err == nil {
			st.Unschedulable = node.Unschedulable
		}
		if p := kl.Plugin(); p != nil {
			st.SGX = true
			st.EPCPages = p.DeviceCount()
			st.EPCPagesFree = p.FreeDevices()
		}
		out = append(out, st)
	}
	return out
}

// EvictJob forcibly terminates a job (queued or running); its resources
// are released and its phase becomes Failed with an eviction reason.
func (c *Cluster) EvictJob(name, reason string) error {
	return c.tb.Srv.Evict(name, reason)
}

// DrainNode takes a node out of service: it goes NotReady (the scheduler
// stops placing pods there) and its running jobs fail, as on a Kubernetes
// node drain.
func (c *Cluster) DrainNode(name string) error {
	for _, kl := range c.tb.Kubelets {
		if kl.NodeName() == name {
			kl.Stop()
			return nil
		}
	}
	return fmt.Errorf("sgxorch: unknown node %q", name)
}

// SchedulerStats reports scheduling activity counters.
type SchedulerStats struct {
	Passes        int
	Bound         int
	Unschedulable int
	// Preemptions counts scheduling decisions that evicted lower-priority
	// jobs to make room; Victims counts the jobs evicted by them.
	Preemptions int
	Victims     int
}

// SchedulerStats returns the scheduler's counters. The registry
// carries the same numbers: Passes is scheduler_pass_duration_seconds'
// count, and
// scheduler_{bound,unschedulable,preemptions,victims}_total{class=…},
// whose sum over class is the field of the same name. On a
// telemetry-disabled cluster this accessor is the only read.
func (c *Cluster) SchedulerStats() SchedulerStats {
	s := c.tb.Scheduler.Stats()
	return SchedulerStats{
		Passes:        s.Passes,
		Bound:         s.Bound,
		Unschedulable: s.Unschedulable,
		Preemptions:   s.Preemptions,
		Victims:       s.Victims,
	}
}

// GangStats reports gang-scheduling outcomes: gangs committed at quorum
// and whole-gang permit rollbacks at the timeout.
type GangStats struct {
	Commits  int64
	Timeouts int64
}

// GangStats returns the gang director's counters, which the registry
// carries as the gang_commits and gang_timeouts gauges. On a
// telemetry-disabled cluster this accessor is the only read.
func (c *Cluster) GangStats() GangStats {
	s := c.tb.Gang.Stats()
	return GangStats{Commits: s.Commits, Timeouts: s.Timeouts}
}

// Telemetry returns the cluster's metrics registry — the one-stop
// observability surface. Each count is exported once, by the component
// that counts it, under that component's prefix: scheduler_*, apiserver_*
// (bind outcomes, queue depth per class and priority), watch_*,
// lifecycle_* (histograms whose counts LifecycleStats reads; no counter
// restates them) and gang_*, beside model_violations, the watch events the
// reference model refused (0 on a sound run). Reading the registry (WritePrometheus,
// ScrapeInto, or any registry export) first runs the pull-time
// collectors that copy the components' own counters into their gauges.
// Nil when ClusterConfig.DisableTelemetry is set — and a nil registry is
// a safe no-op for every operation.
func (c *Cluster) Telemetry() *telemetry.Registry { return c.tb.Cfg.Scheduler.Telemetry }

// WritePrometheus writes every metric in Prometheus text exposition
// format — the pull endpoint's body, minus the HTTP server. No-op on a
// telemetry-disabled cluster.
func (c *Cluster) WritePrometheus(w io.Writer) error {
	return c.Telemetry().WritePrometheus(w)
}

// PassTraces returns the scheduler's retained pass traces, oldest
// first: per-pass wall time, outcome counts, and stage timing spans
// (the per-pod stages on sampled passes only — see
// core.Config.TraceDetailEvery). Empty on a telemetry-disabled
// cluster.
func (c *Cluster) PassTraces() []telemetry.PassTrace {
	return c.tb.Cfg.Scheduler.Trace.Snapshot()
}

// LifecycleStats reports how many lifecycle samples the tracker has
// folded from the stream the audit hands it: binds is the total count of
// the lifecycle_queue_seconds histograms, one per PodBound event, and
// runs that of the startup (and submit-to-run) histograms, one per
// Running event — the server publishes one per binding. Zero-valued on a
// telemetry-disabled cluster.
func (c *Cluster) LifecycleStats() (binds, runs int64) {
	return c.tb.Tracker.BindsObserved(), c.tb.Tracker.RunsObserved()
}

// Query runs an InfluxQL query against the cluster's TSDB — the
// container measurements the EPC probes and Heapster write ("sgx/epc",
// "memory/usage", one series per pod and node, as Listing 1 reads them)
// and, via the self-scrape, the orchestrator's own metrics under
// "self/…". For example, the per-class p99 submission-to-bind latency:
//
//	SELECT MAX(value) FROM "self/lifecycle_queue_seconds" WHERE quantile = '0.99' GROUP BY class
//
// Telemetry series lag the live registry by at most one scrape interval
// (monitor.DefaultScrapeInterval, 10 s); Cluster.Telemetry reads are
// exact.
func (c *Cluster) Query(query string) (influxql.Result, error) {
	return influxql.Execute(c.tb.DB, query)
}
