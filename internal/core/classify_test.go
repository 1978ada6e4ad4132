package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/golden"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

func classedPod(name string, class api.WorkloadClass, prio int32, memBytes int64, dur time.Duration) *api.Pod {
	p := memJob(name, memBytes, memBytes, dur)
	p.Spec.Class = class
	p.Spec.Priority = prio
	return p
}

// TestClassRegistryResolve: the fixed class table resolves each slot to
// its documented pipeline — the scheduler's own policy on the
// unclassified slot, the default sampling floor where a class sets none —
// and only latency-sensitive preempts across tiers into best-effort.
func TestClassRegistryResolve(t *testing.T) {
	table := resolvePipelines(LeastRequested{})
	for _, tc := range []struct {
		class api.WorkloadClass
		want  pipeline
	}{
		{api.ClassUnspecified, pipeline{policy: LeastRequested{}, minFeasible: DefaultMinFeasibleNodesToFind, mayPreempt: true}},
		{api.ClassLatencySensitive, pipeline{policy: UsageAware{}, minFeasible: DefaultLatencyMinFeasible, mayPreempt: true, takeBE: true}},
		{api.ClassBatch, pipeline{policy: Binpack{}, minFeasible: DefaultMinFeasibleNodesToFind}},
		{api.ClassBestEffort, pipeline{policy: Spread{}, minFeasible: DefaultMinFeasibleNodesToFind}},
	} {
		if got := table[tc.class.Slot()]; got != tc.want {
			t.Errorf("%s pipeline = %+v, want %+v", tc.class.Label(), got, tc.want)
		}
	}
}

// classifyHarness is a full stack (server, kubelets, scheduler) whose
// watch event stream is recorded from before the first node joins.
type classifyHarness struct {
	clk    *clock.Sim
	srv    *apiserver.Server
	sched  *Scheduler
	events []string
}

// newClassifyHarness builds the stack.
func newClassifyHarness(t *testing.T) *classifyHarness {
	t.Helper()
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	h := &classifyHarness{clk: clk, srv: srv}
	unsub := subscribeEach(srv, func(ev apiserver.WatchEvent) {
		line := fmt.Sprintf("%v rev=%d", ev.Type, ev.Rev)
		if ev.Pod != nil {
			line += fmt.Sprintf(" pod=%s node=%s phase=%s reason=%q sched=%d start=%d",
				ev.Pod.Name, ev.Pod.Spec.NodeName, ev.Pod.Status.Phase,
				ev.Pod.Status.Reason, ev.Pod.Status.ScheduledAt.UnixNano(),
				ev.Pod.Status.StartedAt.UnixNano())
		}
		if ev.Node != nil {
			line += " node=" + ev.Node.Name
		}
		h.events = append(h.events, line)
	})
	t.Cleanup(unsub)

	var kls []*kubelet.Kubelet
	for i := 0; i < 2; i++ {
		m := machine.New(fmt.Sprintf("std-%d", i+1), 2*resource.GiB, 8000)
		kls = append(kls, kubelet.New(clk, srv, m))
	}
	m := machine.New("sgx-1", 8*resource.GiB, 8000, machine.WithSGX(sgx.DefaultGeometry()))
	kls = append(kls, kubelet.New(clk, srv, m))
	for _, kl := range kls {
		if err := kl.Start(); err != nil {
			t.Fatal(err)
		}
	}
	gd := NewGangDirector(clk, srv, GangConfig{})
	sched, err := New(clk, srv, nil, Config{
		Name:   "sgx-sched",
		Policy: Binpack{},
		Gang:   gd,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopPass := clock.Periodic(clk, 5*time.Second, func() { sched.ScheduleOnce() })
	h.sched = sched
	t.Cleanup(func() {
		stopPass()
		sched.Close()
		gd.Close()
		for _, kl := range kls {
			kl.Stop()
		}
	})
	return h
}

// drive submits a workload mix of priorities high and negative, a gang,
// EPC demand and long durations, but no declared class, then runs the
// simulation out.
func (h *classifyHarness) drive(t *testing.T) {
	t.Helper()
	submit := func(p *api.Pod) {
		p.Spec.SchedulerName = "sgx-sched"
		if err := h.srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	// Overcommit the two 2 GiB standard nodes so priorities and
	// preemption actually engage.
	for i := 0; i < 6; i++ {
		p := memJob(fmt.Sprintf("fill-%d", i), 768*resource.MiB, 700*resource.MiB, 40*time.Second)
		p.Spec.Priority = int32(i%3 - 1) // tiers -1, 0, 1
		submit(p)
		h.clk.Advance(time.Second)
	}
	submit(epcJob("enclave", 2000, 4*resource.MiB, 30*time.Second))
	p := memJob("urgent", 512*resource.MiB, 400*resource.MiB, 10*time.Second)
	p.Spec.Priority = 200
	submit(p)
	p = memJob("long", 256*resource.MiB, 200*resource.MiB, 10*time.Minute)
	submit(p)
	for i := 0; i < 2; i++ {
		g := memJob(fmt.Sprintf("gang-%d", i), 256*resource.MiB, 200*resource.MiB, 20*time.Second)
		g.Spec.PodGroup, g.Spec.MinMember = "ring", 2
		submit(g)
	}
	h.clk.Advance(12 * time.Minute)
}

// TestUnclassifiedPodsBitIdenticalWithRegistry: a workload that declares
// no class schedules through the default slot, the scheduler's own
// policy, and the literal digest of its event stream (same events, same
// order, same revisions, same timestamps) pins it to every earlier
// commit's default pipeline. A class-aware branch that leaks into the
// unclassified path moves the digest.
func TestUnclassifiedPodsBitIdenticalWithRegistry(t *testing.T) {
	h := newClassifyHarness(t)
	h.drive(t)
	if !h.srv.AllTerminal() {
		t.Fatal("the workload did not drain")
	}
	if got, want := golden.StreamDigest(h.events), "382b7c8563e29b4f"; got != want {
		t.Fatalf("event stream digest = %s, want %s (%d events): the default pipeline's schedule changed", got, want, len(h.events))
	}
}

// TestBestEffortAlwaysPreemptible: a bound best-effort pod is evicted by
// a latency-sensitive pod of *equal* priority — impossible under the
// strict priority gate — while a batch pod in the same position must
// wait (its class may not preempt).
func TestBestEffortAlwaysPreemptible(t *testing.T) {
	run := func(class api.WorkloadClass) (evicted bool) {
		clk := clock.NewSim()
		srv := apiserver.New(clk)
		m := machine.New("std-1", 2*resource.GiB, 8000)
		kl := kubelet.New(clk, srv, m)
		if err := kl.Start(); err != nil {
			t.Fatal(err)
		}
		defer kl.Stop()
		sched, err := New(clk, srv, nil, Config{
			Name:   "sgx-sched",
			Policy: Binpack{},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sched.Close()
		defer clock.Periodic(clk, 5*time.Second, func() { sched.ScheduleOnce() })()

		// Fill the node with a best-effort pod at the same tier the
		// challenger arrives in.
		filler := classedPod("filler", api.ClassBestEffort, 0, 1536*resource.MiB, 10*time.Minute)
		filler.Spec.SchedulerName = "sgx-sched"
		if err := srv.CreatePod(filler); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Second)
		if p, _ := srv.GetPod("filler"); p.Spec.NodeName == "" {
			t.Fatal("filler did not bind")
		}
		challenger := classedPod("challenger", class, 0, resource.GiB, 30*time.Second)
		challenger.Spec.SchedulerName = "sgx-sched"
		if err := srv.CreatePod(challenger); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Second)
		p, _ := srv.GetPod("filler")
		return p.Spec.NodeName == "" && p.Status.Phase == api.PodPending
	}
	if !run(api.ClassLatencySensitive) {
		t.Fatal("latency-sensitive pod failed to evict an equal-priority best-effort pod")
	}
	if run(api.ClassBatch) {
		t.Fatal("batch pod evicted a best-effort pod; batch must never preempt")
	}
}

// TestPerClassStatsAndPendingDepth: scheduler Stats splits outcomes per
// class, and the API server reports per-class queue depth.
func TestPerClassStatsAndPendingDepth(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	m := machine.New("std-1", 2*resource.GiB, 8000)
	kl := kubelet.New(clk, srv, m)
	if err := kl.Start(); err != nil {
		t.Fatal(err)
	}
	defer kl.Stop()
	sched, err := New(clk, srv, nil, Config{
		Name:   "sgx-sched",
		Policy: Binpack{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	submit := func(p *api.Pod) {
		p.Spec.SchedulerName = "sgx-sched"
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	submit(classedPod("ls-1", api.ClassLatencySensitive, 0, 512*resource.MiB, 30*time.Second))
	submit(classedPod("be-1", api.ClassBestEffort, 0, 512*resource.MiB, 30*time.Second))
	submit(memJob("plain-1", 512*resource.MiB, 400*resource.MiB, 30*time.Second))
	// Oversized in every class: stays pending.
	submit(classedPod("be-big", api.ClassBestEffort, 0, 8*resource.GiB, 30*time.Second))

	depth := srv.PendingCountByClass("sgx-sched")
	if depth[api.ClassLatencySensitive] != 1 || depth[api.ClassBestEffort] != 2 || depth[api.ClassUnspecified] != 1 {
		t.Fatalf("pre-pass depth = %v", depth)
	}

	sched.ScheduleOnce()
	st := sched.Stats()
	if got := st.Class(api.ClassLatencySensitive); got.Bound != 1 {
		t.Fatalf("latency-sensitive stats = %+v", got)
	}
	if got := st.Class(api.ClassBestEffort); got.Bound != 1 || got.Unschedulable != 1 {
		t.Fatalf("best-effort stats = %+v", got)
	}
	if got := st.Class(api.ClassUnspecified); got.Bound != 1 {
		t.Fatalf("default-pipeline stats = %+v", got)
	}
	if st.Bound != 3 {
		t.Fatalf("total bound = %d, want 3", st.Bound)
	}

	depth = srv.PendingCountByClass("sgx-sched")
	if depth[api.ClassBestEffort] != 1 || len(depth) != 1 {
		t.Fatalf("post-pass depth = %v", depth)
	}
}

// TestLatencyClassSamplingFloor: the latency-sensitive class's raised
// feasibility floor keeps its candidate search exhaustive at cluster
// sizes where other pods are sampled.
func TestLatencyClassSamplingFloor(t *testing.T) {
	if target := numFeasibleNodesToFind(DefaultLatencyMinFeasible, 400); target != 400 {
		t.Fatalf("latency floor at 400 nodes: target = %d, want full scan", target)
	}
	// The default floor samples at that size.
	if target := numFeasibleNodesToFind(DefaultMinFeasibleNodesToFind, 400); target >= 400 {
		t.Fatalf("default sampling at 400 nodes: target = %d, want < 400", target)
	}
}
