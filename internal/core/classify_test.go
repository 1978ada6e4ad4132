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

// TestClassifierExplicitAndInference covers the classification order:
// declared classes always win; inference (when on) reads gang, priority,
// duration and EPC signals in that order; inference off leaves
// undeclared pods unclassified.
func TestClassifierExplicitAndInference(t *testing.T) {
	mk := func(mut func(*api.Pod)) *api.Pod {
		p := memJob("p", resource.GiB, resource.GiB, time.Minute)
		mut(p)
		return p
	}
	cases := []struct {
		name  string
		infer bool
		pod   *api.Pod
		want  api.WorkloadClass
	}{
		{"explicit wins over signals", true,
			mk(func(p *api.Pod) { p.Spec.Class = api.ClassBestEffort; p.Spec.Priority = 500 }),
			api.ClassBestEffort},
		{"explicit honoured without inference", false,
			mk(func(p *api.Pod) { p.Spec.Class = api.ClassLatencySensitive }),
			api.ClassLatencySensitive},
		{"unknown class string stays unclassified", true,
			mk(func(p *api.Pod) { p.Spec.Class = "gold"; p.Spec.Priority = -1 }),
			api.ClassBestEffort}, // unknown → inference applies
		{"inference off leaves unclassified", false,
			mk(func(p *api.Pod) { p.Spec.Priority = 500 }),
			api.ClassUnspecified},
		{"gang member infers batch", true,
			mk(func(p *api.Pod) { p.Spec.PodGroup = "ring"; p.Spec.Priority = 500 }),
			api.ClassBatch},
		{"high priority infers latency-sensitive", true,
			mk(func(p *api.Pod) { p.Spec.Priority = DefaultLatencyPriority }),
			api.ClassLatencySensitive},
		{"negative priority infers best-effort", true,
			mk(func(p *api.Pod) { p.Spec.Priority = -1 }),
			api.ClassBestEffort},
		{"long runtime infers batch", true,
			mk(func(p *api.Pod) { p.Spec.Containers[0].Workload.Duration = DefaultBatchDuration }),
			api.ClassBatch},
		{"EPC demand infers latency-sensitive", true,
			func() *api.Pod { return epcJob("p", 1000, resource.MiB, time.Minute) }(),
			api.ClassLatencySensitive},
		{"short plain job infers best-effort", true,
			mk(func(p *api.Pod) {}),
			api.ClassBestEffort},
	}
	for _, tc := range cases {
		c := NewWorkloadClassifier(ClassifierConfig{Infer: tc.infer})
		if got := c.Classify(tc.pod); got != tc.want {
			t.Errorf("%s: Classify = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestClassRegistryResolve: a scheduler Config resolves the default
// registry into one pipeline per class slot with the documented gates —
// the default sampling floor where a class sets none — and leaves
// unclassified pods on the Config.Policy pipeline.
// Overrides via set replace a class; the default slot cannot be occupied.
func TestClassRegistryResolve(t *testing.T) {
	r := NewClassRegistry(nil) // explicit-only classifier
	for _, class := range api.Classes[1:] {
		if got := r.classifier.Classify(classedPod("p", class, 0, resource.GiB, time.Minute)); got != class {
			t.Fatalf("%s pod classified as %q", class, got)
		}
	}
	if got := r.classifier.Classify(memJob("plain", resource.GiB, resource.GiB, time.Minute)); got != api.ClassUnspecified {
		t.Fatalf("unclassified pod classified as %q, want the default", got)
	}

	cfg := Config{Policy: LeastRequested{}, Classes: r}
	table := resolvePipelines(&cfg)
	if got, want := table[api.ClassUnspecified.Slot()], (pipeline{policy: LeastRequested{}, minFeasible: DefaultMinFeasibleNodesToFind, mayPreempt: true}); got != want {
		t.Fatalf("default slot = %+v, want the Config's own pipeline and bounds %+v", got, want)
	}
	ls := table[api.ClassLatencySensitive.Slot()]
	if ls.policy.Name() != "usage-aware" || !ls.mayPreempt || !ls.takeBE {
		t.Fatalf("latency-sensitive pipeline = %+v", ls)
	}
	if ls.minFeasible != DefaultLatencyMinFeasible {
		t.Fatalf("latency-sensitive floor = %d, want its own %d", ls.minFeasible, DefaultLatencyMinFeasible)
	}
	if pl := table[api.ClassBatch.Slot()]; pl.policy.Name() != "binpack" || pl.mayPreempt || pl.takeBE || pl.minFeasible != DefaultMinFeasibleNodesToFind {
		t.Fatalf("batch pipeline = %+v (must not preempt, inherits the default floor)", pl)
	}
	if pl := table[api.ClassBestEffort.Slot()]; pl.policy.Name() != "spread" || pl.mayPreempt || pl.takeBE {
		t.Fatalf("best-effort pipeline = %+v (must not preempt)", pl)
	}

	// Override one class; the others are untouched. A preempting
	// best-effort class still may not take best-effort victims.
	r.set(ClassProfile{Class: api.ClassBatch, Policy: Spread{}, MayPreempt: true})
	r.set(ClassProfile{Class: api.ClassBestEffort, Policy: Spread{}, MayPreempt: true})
	table = resolvePipelines(&cfg)
	if pl := table[api.ClassBatch.Slot()]; pl.policy.Name() != "spread" || !pl.mayPreempt || !pl.takeBE {
		t.Fatalf("batch after set = %+v, want the preempt-capable override", pl)
	}
	if pl := table[api.ClassBestEffort.Slot()]; !pl.mayPreempt || pl.takeBE {
		t.Fatalf("preempting best-effort = %+v, must not take best-effort victims", pl)
	}
	if table[api.ClassLatencySensitive.Slot()].policy.Name() != "usage-aware" {
		t.Fatal("overriding batch disturbed latency-sensitive")
	}
	// The unspecified slot rejects installation.
	r.set(ClassProfile{Class: api.ClassUnspecified, Policy: Spread{}})
	if got := resolvePipelines(&cfg)[api.ClassUnspecified.Slot()].policy; got != (LeastRequested{}) {
		t.Fatalf("default slot accepted a profile: %q", got.Name())
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

// newClassifyHarness builds the stack with the given class registry
// (nil = class-free scheduler). Everything else is identical across
// calls, so two harnesses fed the same submissions must diverge only
// through the registry.
func newClassifyHarness(t *testing.T, classes *ClassRegistry) *classifyHarness {
	t.Helper()
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	h := &classifyHarness{clk: clk, srv: srv}
	unsub := srv.Subscribe(func(ev apiserver.WatchEvent) {
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
		Name:     "sgx-sched",
		Policy:   Binpack{},
		Interval: 5 * time.Second,
		Gang:     gd,
		Classes:  classes,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	h.sched = sched
	t.Cleanup(func() {
		sched.Close()
		gd.Close()
		for _, kl := range kls {
			kl.Stop()
		}
	})
	return h
}

// drive submits a workload mix carrying every signal the classifier
// reads — priorities high and negative, a gang, EPC demand, long
// durations — but no explicit Class, then runs the simulation out.
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
	p.Spec.Priority = 200 // would infer latency-sensitive
	submit(p)
	p = memJob("long", 256*resource.MiB, 200*resource.MiB, 10*time.Minute)
	submit(p) // would infer batch
	for i := 0; i < 2; i++ {
		g := memJob(fmt.Sprintf("gang-%d", i), 256*resource.MiB, 200*resource.MiB, 20*time.Second)
		g.Spec.PodGroup, g.Spec.MinMember = "ring", 2
		submit(g)
	}
	h.clk.Advance(12 * time.Minute)
}

// TestUnclassifiedPodsBitIdenticalWithRegistry is the compatibility
// property the class subsystem is built around: a scheduler carrying a
// class registry (inference off) schedules a workload with no declared
// classes through the default pipeline, producing an event stream
// *exactly* equal — same events, same order, same revisions, same
// timestamps — to a class-free scheduler's. Any class-aware branch that
// leaks into the unclassified path shows up here as the first diverging
// event.
func TestUnclassifiedPodsBitIdenticalWithRegistry(t *testing.T) {
	base := newClassifyHarness(t, nil)
	classed := newClassifyHarness(t, NewClassRegistry(NewWorkloadClassifier(ClassifierConfig{})))
	base.drive(t)
	classed.drive(t)

	if len(base.events) == 0 {
		t.Fatal("baseline produced no events")
	}
	if !base.srv.AllTerminal() {
		t.Fatal("baseline did not drain")
	}
	for i := range base.events {
		if i >= len(classed.events) {
			t.Fatalf("registry run stopped after %d events, baseline has %d; first missing: %s",
				len(classed.events), len(base.events), base.events[i])
		}
		if base.events[i] != classed.events[i] {
			t.Fatalf("event %d diverged:\n  base:    %s\n  classed: %s", i, base.events[i], classed.events[i])
		}
	}
	if len(classed.events) != len(base.events) {
		t.Fatalf("registry run has %d extra events, first: %s",
			len(classed.events)-len(base.events), classed.events[len(base.events)])
	}
	// Both runs equal each other; the literal digest pins them to every
	// earlier commit's default pipeline as well.
	if got, want := golden.StreamDigest(base.events), "382b7c8563e29b4f"; got != want {
		t.Fatalf("event stream digest = %s, want %s (%d events): the default pipeline's schedule changed", got, want, len(base.events))
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
			Name:     "sgx-sched",
			Policy:   Binpack{},
			Interval: 5 * time.Second,
			Classes:  NewClassRegistry(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sched.Close()
		sched.Start()

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
		Name:     "sgx-sched",
		Policy:   Binpack{},
		Interval: 5 * time.Second,
		Classes:  NewClassRegistry(nil),
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
