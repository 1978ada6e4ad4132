package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/golden"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// withPriority stamps a priority tier on a test pod.
func withPriority(p *api.Pod, prio int32) *api.Pod {
	p.Spec.Priority = prio
	return p
}

// fillSGXNode queues two long-running EPC hogs that together occupy most
// of the single SGX node's 23936 device items, then lets them bind and
// start.
func fillSGXNode(t *testing.T, c *testCluster) {
	t.Helper()
	c.submit(t, epcJob("hog-a", 11000, 30*resource.MiB, time.Hour))
	c.submit(t, epcJob("hog-b", 11000, 30*resource.MiB, time.Hour))
	c.clk.Advance(10 * time.Second)
	for _, name := range []string{"hog-a", "hog-b"} {
		p, _ := c.srv.GetPod(name)
		if p.Status.Phase != api.PodRunning {
			t.Fatalf("%s = %s, want Running", name, p.Status.Phase)
		}
	}
}

// TestPreemptionBindsHighPriorityPodInOnePass fills the SGX node, then
// submits a high-priority SGX pod that cannot fit: the same scheduling
// pass must evict the cheapest victim and bind the pod.
func TestPreemptionBindsHighPriorityPodInOnePass(t *testing.T) {
	c := newTestCluster(t, clusterSpec{sgxNodes: 1, useMetrics: true, enforcement: true})
	fillSGXNode(t, c)

	c.submit(t, withPriority(epcJob("urgent", 6000, 20*resource.MiB, 30*time.Second), 10))
	passesBefore := c.sched.Stats().Passes
	if got := c.sched.ScheduleOnce(); got != 1 {
		t.Fatalf("ScheduleOnce bound %d pods, want 1 (preemption within the pass)", got)
	}
	if got := c.sched.Stats().Passes - passesBefore; got != 1 {
		t.Fatalf("took %d passes, want 1", got)
	}
	urgent, _ := c.srv.GetPod("urgent")
	if urgent.Spec.NodeName != "sgx-1" {
		t.Fatalf("urgent pod on %q, want sgx-1", urgent.Spec.NodeName)
	}

	st := c.sched.Stats()
	if st.Preemptions != 1 || st.Victims != 1 {
		t.Fatalf("stats = %d preemptions / %d victims, want 1/1", st.Preemptions, st.Victims)
	}
	// The cheapest sufficient set is one hog; name order picks hog-a.
	victim, _ := c.srv.GetPod("hog-a")
	if victim.Status.Phase != api.PodPending || victim.Spec.NodeName != "" {
		t.Fatalf("victim = %s on %q, want Pending unbound", victim.Status.Phase, victim.Spec.NodeName)
	}
	survivor, _ := c.srv.GetPod("hog-b")
	if survivor.Status.Phase != api.PodRunning {
		t.Fatalf("survivor hog-b = %s, want Running (minimal victim set)", survivor.Status.Phase)
	}
}

// TestPreemptionVictimsRequeueAndReschedule: an evicted victim re-enters
// the queue and runs again once the preemptor releases the capacity.
func TestPreemptionVictimsRequeueAndReschedule(t *testing.T) {
	c := newTestCluster(t, clusterSpec{sgxNodes: 1, useMetrics: true, enforcement: true})
	fillSGXNode(t, c)
	c.submit(t, withPriority(epcJob("urgent", 6000, 20*resource.MiB, 30*time.Second), 10))
	c.clk.Advance(10 * time.Second)

	victim, _ := c.srv.GetPod("hog-a")
	if victim.Status.Phase != api.PodPending {
		t.Fatalf("victim = %s, want Pending (requeued, not failed)", victim.Status.Phase)
	}
	// The urgent pod finishes within a minute; the victim must then
	// reschedule onto the freed node and run.
	c.clk.Advance(3 * time.Minute)
	victim, _ = c.srv.GetPod("hog-a")
	if victim.Status.Phase != api.PodRunning || victim.Spec.NodeName != "sgx-1" {
		t.Fatalf("victim after capacity freed = %s on %q, want Running on sgx-1",
			victim.Status.Phase, victim.Spec.NodeName)
	}
	urgent, _ := c.srv.GetPod("urgent")
	if urgent.Status.Phase != api.PodSucceeded {
		t.Fatalf("urgent = %s (%s)", urgent.Status.Phase, urgent.Status.Reason)
	}
}

// TestEqualPriorityNeverPreempts: a pod of the same tier as the running
// pods waits instead of evicting them, first come first served: it starts
// only once an hour-long hog has finished.
func TestEqualPriorityNeverPreempts(t *testing.T) {
	c := newTestCluster(t, clusterSpec{sgxNodes: 1, useMetrics: true, enforcement: true})
	fillSGXNode(t, c)
	c.submit(t, epcJob("peer", 6000, 20*resource.MiB, 30*time.Second)) // priority 0, like the hogs
	c.clk.Advance(30 * time.Second)

	peer, _ := c.srv.GetPod("peer")
	if peer.Status.Phase != api.PodPending {
		t.Fatalf("equal-priority pod = %s, want Pending", peer.Status.Phase)
	}
	for _, name := range []string{"hog-a", "hog-b"} {
		p, _ := c.srv.GetPod(name)
		if p.Status.Phase != api.PodRunning {
			t.Fatalf("%s = %s, want Running (equal tiers never preempt)", name, p.Status.Phase)
		}
	}
	if st := c.sched.Stats(); st.Preemptions != 0 || st.Victims != 0 {
		t.Fatalf("stats = %+v, want no preemptions", st)
	}
	c.clk.Advance(2 * time.Hour)
	peer, _ = c.srv.GetPod("peer")
	if w, ok := peer.WaitingTime(); !ok || w < 59*time.Minute || peer.Status.Phase != api.PodSucceeded {
		t.Fatalf("equal-priority pod = %s after waiting %v (started %v), want Succeeded after waiting behind an hour-long hog",
			peer.Status.Phase, w, ok)
	}
}

// TestNoFeasibleVictimSetLeavesPodPending: when even evicting every
// lower-priority pod cannot make the pod fit, nothing is evicted and the
// pod stays queued.
func TestNoFeasibleVictimSetLeavesPodPending(t *testing.T) {
	c := newTestCluster(t, clusterSpec{sgxNodes: 1, useMetrics: true, enforcement: true})
	fillSGXNode(t, c)
	// 30000 pages exceed the node's 23936 devices: statically infeasible.
	c.submit(t, withPriority(epcJob("too-big", 30000, 20*resource.MiB, 30*time.Second), 10))
	c.clk.Advance(30 * time.Second)

	tooBig, _ := c.srv.GetPod("too-big")
	if tooBig.Status.Phase != api.PodPending {
		t.Fatalf("infeasible pod = %s, want Pending", tooBig.Status.Phase)
	}
	for _, name := range []string{"hog-a", "hog-b"} {
		p, _ := c.srv.GetPod(name)
		if p.Status.Phase != api.PodRunning {
			t.Fatalf("%s = %s, want Running (no victims evicted in vain)", name, p.Status.Phase)
		}
	}
	if st := c.sched.Stats(); st.Preemptions != 0 || st.Victims != 0 {
		t.Fatalf("stats = %+v, want no preemptions", st)
	}
}

// TestPreemptionPrefersLowestPriorityVictims: with tiers 1 and 5 running,
// a tier-10 pod needing one eviction must take the tier-1 pod even though
// the tier-5 pod sorts first by name.
func TestPreemptionPrefersLowestPriorityVictims(t *testing.T) {
	c := newTestCluster(t, clusterSpec{sgxNodes: 1, useMetrics: true, enforcement: true})
	c.submit(t, withPriority(epcJob("a-mid", 11000, 30*resource.MiB, time.Hour), 5))
	c.submit(t, withPriority(epcJob("b-low", 11000, 30*resource.MiB, time.Hour), 1))
	c.clk.Advance(10 * time.Second)

	c.submit(t, withPriority(epcJob("urgent", 6000, 20*resource.MiB, 30*time.Second), 10))
	c.clk.Advance(5 * time.Second)

	low, _ := c.srv.GetPod("b-low")
	if low.Status.Phase != api.PodPending {
		t.Fatalf("lowest-priority pod = %s, want Pending (preferred victim)", low.Status.Phase)
	}
	mid, _ := c.srv.GetPod("a-mid")
	if mid.Status.Phase != api.PodRunning {
		t.Fatalf("mid-priority pod = %s, want Running (spared)", mid.Status.Phase)
	}
	urgent, _ := c.srv.GetPod("urgent")
	if urgent.Spec.NodeName != "sgx-1" {
		t.Fatalf("urgent on %q, want sgx-1", urgent.Spec.NodeName)
	}
}

// TestPreemptionTieBreaksOnLeastImportantVictim: two nodes offer victim
// sets of the same size that tie on every priority but the lowest; the
// preemptor takes the node whose least important victim ranks lower. That
// node is visited second, so a comparison that stops above the last
// victim keeps the first.
func TestPreemptionTieBreaksOnLeastImportantVictim(t *testing.T) {
	c := newTestCluster(t, clusterSpec{sgxNodes: 2, useMetrics: true, enforcement: true})
	// Two hogs per node, bound by hand: sgx-1's set is priorities (3, 5),
	// sgx-2's (1, 5). The urgent pod needs both of a node's hogs gone.
	for _, h := range []struct {
		name, node string
		prio       int32
	}{{"a-hog", "sgx-1", 3}, {"b-hog", "sgx-1", 5}, {"c-hog", "sgx-2", 1}, {"d-hog", "sgx-2", 5}} {
		pod := withPriority(epcJob(h.name, 11000, 30*resource.MiB, time.Hour), h.prio)
		pod.Spec.SchedulerName = "pinned"
		if err := c.srv.CreatePod(pod); err != nil {
			t.Fatal(err)
		}
		if err := c.srv.Bind(h.name, h.node); err != nil {
			t.Fatal(err)
		}
	}
	c.clk.Advance(10 * time.Second)

	c.submit(t, withPriority(epcJob("urgent", 20000, 20*resource.MiB, 30*time.Second), 10))
	c.clk.Advance(5 * time.Second)

	urgent, _ := c.srv.GetPod("urgent")
	if urgent.Spec.NodeName != "sgx-2" {
		t.Fatalf("urgent on %q, want sgx-2 (its least important victim ranks lower)", urgent.Spec.NodeName)
	}
	for name, want := range map[string]api.PodPhase{
		"a-hog": api.PodRunning, "b-hog": api.PodRunning, "c-hog": api.PodPending, "d-hog": api.PodPending,
	} {
		if p, _ := c.srv.GetPod(name); p.Status.Phase != want {
			t.Errorf("%s = %s, want %s", name, p.Status.Phase, want)
		}
	}
}

// TestPreemptionRespectsSGXLastRule: a high-priority standard pod must
// preempt on a standard node even when an SGX node offers a cheaper
// victim set — §IV's "only resort to SGX-enabled nodes ... when no other
// choice is possible" applies to preemption too.
func TestPreemptionRespectsSGXLastRule(t *testing.T) {
	c := newTestCluster(t, clusterSpec{stdNodes: 1, sgxNodes: 1, useMetrics: true, enforcement: true})
	// Fill the standard node (64 GiB) with two 30 GiB victims, then the
	// SGX node (8 GiB) with a 7 GiB filler — the filler lands on SGX
	// hardware legitimately, as the last resort.
	c.submit(t, memJob("std-victim-a", 30*resource.GiB, resource.GiB, time.Hour))
	c.submit(t, memJob("std-victim-b", 30*resource.GiB, resource.GiB, time.Hour))
	c.clk.Advance(10 * time.Second)
	c.submit(t, memJob("sgx-filler", 7*resource.GiB, resource.GiB, time.Hour))
	c.clk.Advance(10 * time.Second)
	filler, _ := c.srv.GetPod("sgx-filler")
	if filler.Spec.NodeName != "sgx-1" {
		t.Fatalf("filler on %q, want sgx-1 (std node full)", filler.Spec.NodeName)
	}

	// A 6 GiB high-priority standard pod fits neither node. Both offer a
	// one-victim set, and sgx-1 sorts before std-1 — only the SGX-last
	// rule forces the standard node.
	c.submit(t, withPriority(memJob("urgent-std", 6*resource.GiB, resource.GiB, 30*time.Second), 10))
	c.clk.Advance(5 * time.Second)

	urgent, _ := c.srv.GetPod("urgent-std")
	if urgent.Spec.NodeName != "std-1" {
		t.Fatalf("urgent standard pod on %q, want std-1 (SGX node preserved)", urgent.Spec.NodeName)
	}
	filler, _ = c.srv.GetPod("sgx-filler")
	if filler.Status.Phase != api.PodRunning {
		t.Fatalf("SGX-node filler = %s, want Running (not preempted)", filler.Status.Phase)
	}
	victimA, _ := c.srv.GetPod("std-victim-a")
	if victimA.Status.Phase != api.PodPending {
		t.Fatalf("std-victim-a = %s, want Pending (the chosen victim)", victimA.Status.Phase)
	}
	victimB, _ := c.srv.GetPod("std-victim-b")
	if victimB.Status.Phase != api.PodRunning {
		t.Fatalf("std-victim-b = %s, want Running (minimal set)", victimB.Status.Phase)
	}
}

// TestPriorityOrdersPendingQueue: a saturated node serialises three jobs;
// the highest tier must run first regardless of submission order.
func TestPriorityOrdersPendingQueue(t *testing.T) {
	c := newTestCluster(t, clusterSpec{sgxNodes: 1, useMetrics: true, enforcement: true})
	// Saturate with one short job so the queue builds behind it, without
	// any preemptable headroom for the later submissions.
	c.submit(t, epcJob("warm", 23000, 30*resource.MiB, 40*time.Second))
	c.clk.Advance(time.Second)
	c.submit(t, withPriority(epcJob("low", 23000, 30*resource.MiB, 30*time.Second), 1))
	c.clk.Advance(time.Second)
	c.submit(t, withPriority(epcJob("high", 23000, 30*resource.MiB, 30*time.Second), 2))
	c.clk.Advance(10 * time.Minute)

	if !c.srv.AllTerminal() {
		t.Fatal("jobs did not drain")
	}
	lowPod, _ := c.srv.GetPod("low")
	highPod, _ := c.srv.GetPod("high")
	lw, _ := lowPod.WaitingTime()
	hw, _ := highPod.WaitingTime()
	// high was submitted after low but sits in a higher tier, so it must
	// start earlier relative to its submission.
	if highPod.Status.StartedAt.After(lowPod.Status.StartedAt) {
		t.Fatalf("high started %v after low (waits high=%v low=%v)",
			highPod.Status.StartedAt.Sub(lowPod.Status.StartedAt), hw, lw)
	}
}

// preemptionVetoCluster builds one 10 GiB node with a bound low-priority
// 8 GiB victim and queues a priority-5 4 GiB pod that can only fit by
// eviction.
func preemptionVetoCluster(t *testing.T, policy Policy) (*Scheduler, *apiserver.Server) {
	t.Helper()
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	alloc := resource.List{resource.Memory: 10 * resource.GiB}
	if err := srv.RegisterNode(&api.Node{
		Name: "n1", Capacity: alloc, Allocatable: alloc, Ready: true,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(clk, srv, nil, Config{Name: "s", Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	victim := memJob("victim", 8*resource.GiB, resource.GiB, time.Hour)
	victim.Spec.SchedulerName = "s"
	if err := srv.CreatePod(victim); err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind("victim", "n1"); err != nil {
		t.Fatal(err)
	}
	urgent := withPriority(memJob("urgent", 4*resource.GiB, resource.GiB, time.Minute), 5)
	urgent.Spec.SchedulerName = "s"
	if err := srv.CreatePod(urgent); err != nil {
		t.Fatal(err)
	}
	return s, srv
}

// TestPreemptionHonoursPreScoreDecline: a policy that declines every
// candidate — a stand-in for placement constraints past the §IV fit,
// where the victim math cannot see them, once a declining pre-score
// plugin — must also veto preemption: no evictions, no bind.
func TestPreemptionHonoursPreScoreDecline(t *testing.T) {
	s, srv := preemptionVetoCluster(t, denied{Binpack{}})
	for pass := 0; pass < 3; pass++ {
		if got := s.ScheduleOnce(); got != 0 {
			t.Fatalf("pass %d bound %d pods against the policy's veto", pass, got)
		}
	}
	victim, _ := srv.GetPod("victim")
	if victim.Spec.NodeName != "n1" {
		t.Fatalf("victim evicted (now on %q) although the policy declines every node", victim.Spec.NodeName)
	}
	if st := s.Stats(); st.Preemptions != 0 || st.Victims != 0 {
		t.Fatalf("stats = %+v, want no futile evictions", st)
	}

	// Control: the identical cluster without the veto does preempt.
	s2, srv2 := preemptionVetoCluster(t, Binpack{})
	if got := s2.ScheduleOnce(); got != 1 {
		t.Fatalf("control run bound %d pods, want 1 via preemption", got)
	}
	victim, _ = srv2.GetPod("victim")
	if victim.Spec.NodeName != "" {
		t.Fatal("control run did not evict the victim")
	}
}

// TestPreemptionDeterministic runs an identical preemption-heavy scenario
// twice and requires bit-identical watch event sequences — preemption
// decisions (victim choice, eviction order) must not depend on map order
// or other incidental state.
func TestPreemptionDeterministic(t *testing.T) {
	run := func() []string {
		c := newTestCluster(t, clusterSpec{stdNodes: 1, sgxNodes: 2, useMetrics: true, enforcement: true})
		var seq []string
		unsub := subscribeEach(c.srv, func(ev apiserver.WatchEvent) {
			entry := fmt.Sprintf("rev=%d type=%d", ev.Rev, ev.Type)
			if ev.Pod != nil {
				entry += fmt.Sprintf(" pod=%s node=%s phase=%s reason=%q",
					ev.Pod.Name, ev.Pod.Spec.NodeName, ev.Pod.Status.Phase, ev.Pod.Status.Reason)
			}
			seq = append(seq, entry)
		})
		defer unsub()

		// Several equal hogs across both SGX nodes, then waves of
		// higher-priority pods forcing multi-victim choices.
		for i := 0; i < 4; i++ {
			c.submit(t, withPriority(epcJob(fmt.Sprintf("hog-%d", i), 5500, 20*resource.MiB, time.Hour), int32(i%2)))
		}
		c.clk.Advance(10 * time.Second)
		for i := 0; i < 3; i++ {
			c.submit(t, withPriority(epcJob(fmt.Sprintf("vip-%d", i), 9000, 20*resource.MiB, 45*time.Second), 7))
			c.clk.Advance(7 * time.Second)
		}
		c.clk.Advance(5 * time.Minute)
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\nrun1: %s\nrun2: %s", i, a[i], b[i])
		}
	}
	preempted := 0
	for _, e := range a {
		if strings.Contains(e, "Preempted") {
			preempted++
		}
	}
	if preempted == 0 {
		t.Fatal("scenario produced no preemptions; determinism check is vacuous")
	}
	// Pinned across commits, not just run-to-run.
	if got, want := golden.StreamDigest(a), "37b6d66ec03e1797"; got != want {
		t.Fatalf("event stream digest = %s, want %s (%d events): a preemption decision changed", got, want, len(a))
	}
}

// TestPreemptionAttemptAllocsIndependentOfClusterSize pins the cost shape
// of a failed preemption attempt: the planner works on the scheduler's own
// incremental view, so what an attempt allocates must not grow with the
// number of nodes. Every node is full of pods in the pending pods' own
// tier, plus one lower-tier pod too small to make room anywhere — so every
// pending pod passes the once-per-pass gate, plans over every node, and
// finds no victim set. (A planner that clones the cluster per attempt pays
// a NodeView, an Allocatable copy and a Used map per node per attempt.)
func TestPreemptionAttemptAllocsIndependentOfClusterSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	const pendingPods = 3
	attemptAllocs := func(nodes int) float64 {
		_, srv, sched := newBareScheduler(t, nodes, Config{})
		bind := func(pod *api.Pod, node string) {
			t.Helper()
			pod.Spec.SchedulerName = sched.Name()
			if err := srv.CreatePod(pod); err != nil {
				t.Fatal(err)
			}
			if err := srv.Bind(pod.Name, node); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nodes; i++ {
			node := fmt.Sprintf("node-%02d", i)
			fill := int64(64 * resource.GiB)
			if i == 0 {
				fill -= resource.GiB
				bind(memPod("small-fry", resource.GiB, 0), node)
			}
			bind(memPod("peer-"+node, fill, 5), node)
		}
		for i := 0; i < pendingPods; i++ {
			pod := memPod(fmt.Sprintf("waiting-%d", i), 8*resource.GiB, 5)
			pod.Spec.SchedulerName = sched.Name()
			if err := srv.CreatePod(pod); err != nil {
				t.Fatal(err)
			}
		}
		sched.ScheduleOnce() // warm the pass buffers
		allocs := testing.AllocsPerRun(20, func() { sched.ScheduleOnce() })
		if st := sched.Stats(); st.Bound != 0 || st.Preemptions != 0 || st.Unschedulable != st.Passes*pendingPods {
			t.Fatalf("%d nodes: stats = %+v, want every attempt to plan and find no victim set", nodes, st)
		}
		return allocs
	}
	small, large := attemptAllocs(4), attemptAllocs(64)
	if small != large {
		t.Fatalf("a pass of %d failed preemption attempts allocated %v at 4 nodes and %v at 64: the planner's cost grows with the cluster",
			pendingPods, small, large)
	}
}

// TestPreemptionAttemptAcrossGangsAllocFree pins a failed preemption
// attempt over nodes that host gang members at zero allocations: every
// node holds members of two gangs, each gang spanning two nodes, beside a
// peer of the pending pod's tier, so the planner collapses each node's
// members into gang units on every attempt and still finds no victim set.
// (A planner that collects a node's gangs into a fresh set pays for it per
// node per attempt.)
func TestPreemptionAttemptAcrossGangsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	const nodes = 8
	_, srv, sched := newBareScheduler(t, nodes, Config{})
	bind := func(pod *api.Pod, node string) {
		t.Helper()
		pod.Spec.SchedulerName = sched.Name()
		if err := srv.CreatePod(pod); err != nil {
			t.Fatal(err)
		}
		if err := srv.Bind(pod.Name, node); err != nil {
			t.Fatal(err)
		}
	}
	node := func(i int) string { return fmt.Sprintf("node-%02d", i%nodes) }
	for i := 0; i < nodes; i++ {
		// Gang g-i has a member on node i and one on node i+1.
		for m := 0; m < 2; m++ {
			bind(memGangPod(fmt.Sprintf("g-%d-%d", i, m), fmt.Sprintf("g-%d", i), 2, resource.GiB, 0), node(i+m))
		}
		bind(memPod("peer-"+node(i), 62*resource.GiB, 5), node(i))
	}
	pod := memPod("waiting", 8*resource.GiB, 5)
	pod.Spec.SchedulerName = sched.Name()
	if err := srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	sched.ScheduleOnce() // warm the pass and planner buffers
	allocs := testing.AllocsPerRun(20, func() { sched.ScheduleOnce() })
	if st := sched.Stats(); st.Bound != 0 || st.Preemptions != 0 || st.Unschedulable != st.Passes {
		t.Fatalf("stats = %+v, want every pass to plan over every node and find no victim set", st)
	}
	if allocs != 0 {
		t.Fatalf("a failed preemption attempt over %d nodes hosting gang members allocated %v/op, want 0", nodes, allocs)
	}
}
