package main

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch"
	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// clusterSaturated is the product as shipped: sgxorch.NewCluster with
// its defaults (telemetry registry, pass-trace ring, lifecycle tracker,
// self-scrape, class registry, gang director) on a 13-machine cluster,
// with the jobs of several eval slices all submitted at t = 0 so the
// queue stays deep until the drain ends. Classes rotate latency-sensitive
// / batch / best-effort; every fourth job is an SGX job. One op is one
// job. There are no gang jobs: completion would then hang on permit
// timeouts, and the permit path has its own micro-benchmark.
type clusterSaturated struct{}

const (
	satScheduler = "sgxorch" // the identity Cluster.SubmitJob stamps
	satHorizon   = 48 * time.Hour
)

var satClasses = [3]struct {
	class    string
	priority int32
}{
	{sgxorch.ClassLatencySensitive, 100},
	{sgxorch.ClassBatch, 10},
	{sgxorch.ClassBestEffort, 0},
}

func (clusterSaturated) name() string   { return "cluster_saturated" }
func (clusterSaturated) opName() string { return "job" }

// satJobs builds the rep's job list with §VI-B scaling: the request is
// the assigned memory, the usage the maximal one.
func satJobs(rc *repCtx) []sgxorch.JobSpec {
	var specs []sgxorch.JobSpec
	for s := 0; s < rc.sc.satSlices; s++ {
		trace := sgxorch.GenerateBorgEvalSlice(subSeed(rc.seed, rc.rep, s))
		for _, job := range trace.Jobs[:rc.sc.satJobs] {
			i := len(specs)
			spec := sgxorch.JobSpec{
				Name:     fmt.Sprintf("job-%05d", i),
				Duration: job.Duration,
				Priority: satClasses[i%3].priority,
				Class:    satClasses[i%3].class,
			}
			if i%4 == 3 {
				spec.MemoryRequestBytes = 16 * sgxorch.MiB
				spec.EPCRequestBytes = max(borg.SGXMemBytes(job.AssignedMemFrac), resource.EPCPageSize)
				spec.EPCUsageBytes = max(borg.SGXMemBytes(job.MaxMemFrac), resource.EPCPageSize)
			} else {
				spec.MemoryRequestBytes = max(borg.StandardMemBytes(job.AssignedMemFrac), resource.MiB)
				spec.MemoryUsageBytes = max(borg.StandardMemBytes(job.MaxMemFrac), resource.MiB)
			}
			specs = append(specs, spec)
		}
	}
	return specs
}

// satNodes is one master, std standard and sgx SGX machines of the §VI-A
// kinds.
func satNodes(std, sgx int) []nodeSpec {
	nodes := []nodeSpec{{name: "master", ram: 64 * resource.GiB, master: true}}
	for i := 1; i <= std; i++ {
		nodes = append(nodes, nodeSpec{name: fmt.Sprintf("std-%d", i), ram: 64 * resource.GiB})
	}
	for i := 1; i <= sgx; i++ {
		nodes = append(nodes, nodeSpec{name: fmt.Sprintf("sgx-%d", i), ram: 8 * resource.GiB, sgx: true})
	}
	return nodes
}

// satStatus is what the digest and the checks read of one finished job;
// both Cluster.JobStatus and a stored pod yield it.
type satStatus struct {
	phase, node       string
	started, finished bool
	waiting           time.Duration
	turnaround        time.Duration
}

func (w clusterSaturated) rep(rc *repCtx) error {
	var specs []sgxorch.JobSpec
	var nodes []nodeSpec
	rc.setup(func() {
		specs = satJobs(rc)
		nodes = satNodes(rc.sc.satStd, rc.sc.satSGX)
	})
	statuses := make([]satStatus, len(specs))
	var drained bool
	var binds int64
	var err error
	if rc.tr == nil {
		err = w.untraced(rc, specs, nodes, statuses, &drained, &binds)
	} else {
		err = w.traced(rc, specs, nodes, statuses, &drained, &binds)
	}
	if err != nil {
		return err
	}

	if !drained {
		return fmt.Errorf("WaitAll: jobs still live after %v", satHorizon)
	}
	d := newDigester()
	byClass := make(map[string][]float64)
	for i, st := range statuses {
		rc.res.ops++
		if !st.finished {
			rc.res.failed++
		}
		if st.started {
			secs := st.waiting.Seconds()
			rc.res.waits = append(rc.res.waits, secs)
			byClass[specs[i].Class] = append(byClass[specs[i].Class], secs)
		}
		rc.res.makespan = max(rc.res.makespan, st.turnaround.Seconds())
		d.add(specs[i].Name, st.phase, st.node, st.started, int64(st.waiting), st.finished, int64(st.turnaround))
	}
	rc.res.digest = d.sum()
	rc.res.lsWaits = byClass[sgxorch.ClassLatencySensitive]
	if rc.res.failed > 0 {
		return fmt.Errorf("%d of %d jobs not finished", rc.res.failed, rc.res.ops)
	}
	if !rc.noTelemetry && binds < int64(len(specs)) {
		return fmt.Errorf("lifecycle tracker saw %d binds for %d jobs", binds, len(specs))
	}
	p99 := func(class string) float64 { return quantile(sorted(byClass[class]), 0.99) }
	ls, batch, be := p99(sgxorch.ClassLatencySensitive), p99(sgxorch.ClassBatch), p99(sgxorch.ClassBestEffort)
	if !(ls < batch && ls < be) {
		return fmt.Errorf("latency-sensitive p99 wait %.0fs not below batch %.0fs and best-effort %.0fs", ls, batch, be)
	}
	return nil
}

// untraced drives the public API only.
func (clusterSaturated) untraced(rc *repCtx, specs []sgxorch.JobSpec, nodes []nodeSpec, statuses []satStatus, drained *bool, binds *int64) error {
	var c *sgxorch.Cluster
	var err error
	rc.timed(func() {
		public := make([]sgxorch.NodeSpec, len(nodes))
		for i, n := range nodes {
			public[i] = sgxorch.NodeSpec{Name: n.name, RAMBytes: n.ram, CPUMillis: 8000, SGX: n.sgx, Master: n.master}
		}
		c, err = sgxorch.NewCluster(sgxorch.ClusterConfig{Nodes: public, DisableTelemetry: rc.noTelemetry})
		if err != nil {
			return
		}
		for _, spec := range specs {
			if err = c.SubmitJob(spec); err != nil {
				return
			}
		}
		*drained = c.WaitAll(satHorizon)
		for i, spec := range specs {
			var js sgxorch.JobStatus
			if js, err = c.JobStatus(spec.Name); err != nil {
				return
			}
			statuses[i] = satStatus{js.Phase, js.Node, js.Started, js.Finished, js.Waiting, js.Turnaround}
		}
		*binds, _ = c.LifecycleStats()
		c.Close()
	})
	return err
}

// traced runs the same drain over a harness-assembled product stack.
func (clusterSaturated) traced(rc *repCtx, specs []sgxorch.JobSpec, nodes []nodeSpec, statuses []satStatus, drained *bool, binds *int64) error {
	var st *simStack
	var err error
	rc.timed(func() {
		st, err = newSimStack(rc.tr, stackConfig{
			nodes: nodes, scheduler: satScheduler, product: true, noTelemetry: rc.noTelemetry,
		}, rc.cap)
		if err != nil {
			return
		}
		for _, spec := range specs {
			if err = st.createPod(jobPod(spec)); err != nil {
				return
			}
		}
		*drained = st.run(st.srv.AllTerminal, st.clk.Now().Add(satHorizon))
		for i, spec := range specs {
			var pod *api.Pod
			if pod, err = st.srv.GetPod(spec.Name); err != nil {
				return
			}
			s := satStatus{phase: string(pod.Status.Phase), node: pod.Spec.NodeName}
			s.waiting, s.started = pod.WaitingTime()
			s.turnaround, s.finished = pod.TurnaroundTime()
			statuses[i] = s
		}
		*binds = st.tracker.BindsObserved()
	})
	if err != nil {
		return err
	}
	rc.cap.detach()
	readStackCounters(rc, st)
	rc.measureLiveHeap()
	rc.timed(st.close)
	return nil
}

// jobPod restates Cluster.SubmitJob's pod construction for the job shapes
// this workload submits (static memory and static EPC jobs).
func jobPod(spec sgxorch.JobSpec) *api.Pod {
	requests := resource.List{resource.Memory: spec.MemoryRequestBytes}
	limits := resource.List{}
	workload := api.WorkloadSpec{Kind: api.WorkloadStressVM, Duration: spec.Duration, AllocBytes: spec.MemoryUsageBytes}
	if spec.EPCRequestBytes > 0 {
		pages := resource.PagesForBytes(spec.EPCRequestBytes)
		requests[resource.EPCPages] = pages
		limits[resource.EPCPages] = pages
		workload = api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: spec.Duration, AllocBytes: spec.EPCUsageBytes}
	}
	return &api.Pod{
		Name: spec.Name,
		Spec: api.PodSpec{
			SchedulerName: satScheduler,
			Priority:      spec.Priority,
			Class:         api.WorkloadClass(spec.Class),
			Containers: []api.Container{{
				Name:      "workload",
				Resources: api.Requirements{Requests: requests, Limits: limits},
				Workload:  workload,
			}},
		},
	}
}
