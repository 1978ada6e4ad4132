package core

import (
	"fmt"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/telemetry"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// newBareScheduler builds a scheduler over directly registered nodes —
// no kubelets, no monitoring — so telemetry tests control exactly what
// a pass does.
func newBareScheduler(t *testing.T, nodes int, cfg Config) (*clock.Sim, *apiserver.Server, *Scheduler) {
	t.Helper()
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	db := tsdb.New(clk)
	t.Cleanup(db.Close)
	alloc := resource.List{resource.Memory: 64 * resource.GiB, resource.CPU: 8000}
	for i := 0; i < nodes; i++ {
		if err := srv.RegisterNode(&api.Node{
			Name:        fmt.Sprintf("node-%02d", i),
			Capacity:    alloc,
			Allocatable: alloc,
			Ready:       true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Name == "" {
		cfg.Name = "telemetry-test"
	}
	if cfg.Policy == nil {
		cfg.Policy = Binpack{}
	}
	sched, err := New(clk, srv, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	return clk, srv, sched
}

func telemetryPod(name, sched string, memBytes int64) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			SchedulerName: sched,
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.Memory: memBytes}},
			}},
		},
	}
}

// steadyPassAllocs measures a steady-state pass that does everything a
// pass can do without mutating the cluster. Per class in play it queues
// one pod too large for any node (unschedulable with no candidates) and
// one that fits every node but that its policy declines after a full
// selection over every candidate (denied); with classes on, all four
// class slots have pods pending and run the shipped policies: binpack on
// the default slot and each class's own on the class slots.
func steadyPassAllocs(t *testing.T, cfg Config, classes bool) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	cfg.Policy = Binpack{}
	pending := []api.WorkloadClass{api.ClassUnspecified}
	if classes {
		pending = append(pending, api.ClassLatencySensitive, api.ClassBatch, api.ClassBestEffort)
	}
	_, srv, sched := newBareScheduler(t, 8, cfg)
	for i := range sched.pipelines {
		pl := &sched.pipelines[i]
		pl.policy = denied{pl.policy}
	}
	for _, class := range pending {
		for _, shape := range []struct {
			name string
			mem  int64
		}{{"huge", 1 << 50}, {"denied", resource.GiB}} {
			pod := telemetryPod(fmt.Sprintf("%s-%s", shape.name, class), "telemetry-test", shape.mem)
			pod.Spec.Class = class
			if err := srv.CreatePod(pod); err != nil {
				t.Fatal(err)
			}
		}
	}
	sched.ScheduleOnce() // warm the pass buffers
	allocs := testing.AllocsPerRun(50, func() { sched.ScheduleOnce() })
	if st := sched.Stats(); st.Bound != 0 || st.Unschedulable != st.Passes*2*len(pending) {
		t.Fatalf("stats = %+v, want every pod unschedulable on every pass and nothing bound", st)
	}
	return allocs
}

// TestDisabledTelemetryPassAllocFree holds the hard budget of the
// instrumentation: with Config.Telemetry nil, a steady-state scheduling
// pass — the filter walk, every shipped policy's selection and the
// unschedulable path, with and without workload classes — allocates
// nothing. Every instrumentation site must stay behind a nil check, and
// the cycle's outcome and scratch must stay off the heap, for this to
// hold.
func TestDisabledTelemetryPassAllocFree(t *testing.T) {
	for _, classes := range []bool{false, true} {
		t.Run(fmt.Sprintf("classes=%v", classes), func(t *testing.T) {
			if allocs := steadyPassAllocs(t, Config{}, classes); allocs != 0 {
				t.Fatalf("disabled-telemetry pass allocated %v/op, want 0", allocs)
			}
		})
	}
}

// TestEnabledTelemetryUndetailedPassAllocs bounds the enabled overhead:
// an instrumented pass performs only atomic counter/histogram updates
// plus the ring's single span-copy, so it must stay within one small
// allocation per pass — undetailed and, because the per-pod stage
// timing only adds to the recorder's fixed accumulators, detailed too.
func TestEnabledTelemetryUndetailedPassAllocs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		detailEvery int
	}{
		// Beyond the run length: every measured pass is undetailed.
		{"undetailed", 1 << 30},
		// Every measured pass times each per-pod stage.
		{"detailed", 1},
	} {
		for _, classes := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/classes=%v", tc.name, classes), func(t *testing.T) {
				cfg := Config{Telemetry: telemetry.New(), Trace: telemetry.NewTraceRing(0), TraceDetailEvery: tc.detailEvery}
				if allocs := steadyPassAllocs(t, cfg, classes); allocs > 1 {
					t.Fatalf("%s instrumented pass allocated %v/op, want <= 1 (the trace-ring span copy)", tc.name, allocs)
				}
			})
		}
	}
	// Without Config.Trace there is no ring, so no span copy either.
	t.Run("no ring", func(t *testing.T) {
		if allocs := steadyPassAllocs(t, Config{Telemetry: telemetry.New(), TraceDetailEvery: 1}, true); allocs != 0 {
			t.Fatalf("instrumented pass without a trace ring allocated %v/op, want 0", allocs)
		}
	})
}

// TestDetailedPassMatchesPlain is the bit-identical equivalence check:
// a scheduler tracing every pass in full detail (clock reads around
// every per-pod stage) must make exactly the placements of an
// uninstrumented scheduler over the same cluster and workload.
func TestDetailedPassMatchesPlain(t *testing.T) {
	place := func(cfg Config) map[string]string {
		_, srv, sched := newBareScheduler(t, 6, cfg)
		for i := 0; i < 40; i++ {
			// Varied sizes so scoring order and tie-breaks matter.
			mem := int64(i%7+1) * 4 * resource.GiB
			pod := telemetryPod(fmt.Sprintf("pod-%02d", i), cfg.Name, mem)
			pod.Spec.Priority = int32(i % 3)
			if err := srv.CreatePod(pod); err != nil {
				t.Fatal(err)
			}
		}
		for pass := 0; pass < 10; pass++ {
			sched.ScheduleOnce()
		}
		got := make(map[string]string)
		srv.VisitPods(func(p *api.Pod) bool {
			got[p.Name] = p.Spec.NodeName
			return true
		})
		return got
	}
	plain := place(Config{Name: "plain"})
	detailed := place(Config{
		Name:             "detailed",
		Telemetry:        telemetry.New(),
		Trace:            telemetry.NewTraceRing(8),
		TraceDetailEvery: 1, // every pass times every per-pod stage
	})
	if len(plain) != len(detailed) {
		t.Fatalf("pod counts differ: %d vs %d", len(plain), len(detailed))
	}
	for name, node := range plain {
		if detailed[name] != node {
			t.Fatalf("pod %s: plain→%q detailed→%q — instrumentation changed a placement", name, node, detailed[name])
		}
	}
}

// TestPassMetricsAndTraceRing checks the metric/trace bookkeeping of
// instrumented passes, on a plain bind-everything run (ring and span
// shape) and on a pass mix that produces every outcome a cycle can
// report (the counters).
func TestPassMetricsAndTraceRing(t *testing.T) {
	t.Run("ring and spans", passRingAndSpans)
	t.Run("every outcome, one tally", passTallyEveryOutcome)
}

// passRingAndSpans: the pass histogram counts the ScheduleOnce calls,
// the bound counter the binds, traces carry strictly increasing
// Seq with stage spans, and only detailed traces carry the per-pod filter
// and score spans.
func passRingAndSpans(t *testing.T) {
	reg := telemetry.New()
	ring := telemetry.NewTraceRing(16)
	_, srv, sched := newBareScheduler(t, 4, Config{
		Telemetry:        reg,
		Trace:            ring,
		TraceDetailEvery: 2,
	})
	// Feed pods before every pass so the detailed passes (even Seq) have
	// pending work and enter the ring too.
	const passes = 4
	for i := 0; i < passes; i++ {
		for j := 0; j < 2; j++ {
			pod := telemetryPod(fmt.Sprintf("pod-%d-%d", i, j), "telemetry-test", resource.GiB)
			if err := srv.CreatePod(pod); err != nil {
				t.Fatal(err)
			}
		}
		sched.ScheduleOnce()
	}

	if got := reg.Histogram("scheduler_pass_duration_seconds", nil).Count(); got != passes {
		t.Fatalf("pass duration histogram count = %d, want %d", got, passes)
	}
	if got := reg.CounterVec("scheduler_bound_total", "class").With("unclassified").Value(); got != 8 {
		t.Fatalf("scheduler_bound_total{unclassified} = %d, want 8", got)
	}

	traces := sched.cfg.Trace.Snapshot()
	if len(traces) == 0 {
		t.Fatal("no pass traces recorded")
	}
	lastSeq := int64(0)
	sawDetailed := false
	for _, tr := range traces {
		if tr.Seq <= lastSeq {
			t.Fatalf("trace Seq not strictly increasing: %d after %d", tr.Seq, lastSeq)
		}
		lastSeq = tr.Seq
		if tr.Scheduler != "telemetry-test" {
			t.Fatalf("trace scheduler = %q", tr.Scheduler)
		}
		if tr.Pending == 0 {
			t.Fatal("empty passes must not enter the ring")
		}
		if len(tr.Spans) == 0 {
			t.Fatalf("trace seq=%d has no spans", tr.Seq)
		}
		perPod := 0
		for _, sp := range tr.Spans {
			if sp.Stage == telemetry.StageFilter || sp.Stage == telemetry.StageScore {
				perPod++
			}
		}
		if want := map[bool]int{false: 0, true: 2}[tr.Detailed]; perPod != want {
			t.Fatalf("trace seq=%d (detailed %v) carries %d of the filter and score spans, want %d", tr.Seq, tr.Detailed, perPod, want)
		}
		sawDetailed = sawDetailed || tr.Detailed
	}
	if !sawDetailed {
		t.Fatal("no detailed trace (TraceDetailEvery=2 over 4 passes must sample at least one)")
	}

	assertOneTally(t, sched, reg, passes)
}

// assertOneTally cross-checks the three places a pass's outcome counts
// surface — Scheduler.Stats, the registry series (per class where
// labelled) and the sum over the retained PassTraces — which all derive
// from the one per-pass tally and so must agree counter for counter.
// calls is how many passes the caller ran, idle ones included; the trace
// ring must have retained every non-idle one.
func assertOneTally(t *testing.T, sched *Scheduler, reg *telemetry.Registry, calls int) Stats {
	t.Helper()
	st := sched.Stats()
	eq := func(what string, got, want int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s = %d, Stats says %d (stats %+v)", what, got, want, st)
		}
	}
	eq("ScheduleOnce calls", calls, st.Passes)
	eq("scheduler_pass_duration_seconds count", int(reg.Histogram("scheduler_pass_duration_seconds", nil).Count()), st.Passes)
	eq("scheduler_conflicts_total", int(reg.Counter("scheduler_conflicts_total").Value()), st.Conflicts)
	eq("scheduler_sampled_pods_total", int(reg.Counter("scheduler_sampled_pods_total").Value()), st.Sampled)
	eq("scheduler_gated_total", int(reg.Counter("scheduler_gated_total").Value()), st.Gated)
	var sum ClassStats
	// The label strings are spelled out: series names depend on them.
	labels := [...]string{"unclassified", "latency-sensitive", "batch", "best-effort"}
	for slot, cs := range st.ByClass {
		label := labels[slot]
		series := func(name string) int {
			return int(reg.CounterVec(name, "class").With(label).Value())
		}
		eq("scheduler_bound_total{"+label+"}", series("scheduler_bound_total"), cs.Bound)
		eq("scheduler_unschedulable_total{"+label+"}", series("scheduler_unschedulable_total"), cs.Unschedulable)
		eq("scheduler_preemptions_total{"+label+"}", series("scheduler_preemptions_total"), cs.Preemptions)
		eq("scheduler_victims_total{"+label+"}", series("scheduler_victims_total"), cs.Victims)
		eq("scheduler_held_total{"+label+"}", series("scheduler_held_total"), cs.Held)
		sum.Bound += cs.Bound
		sum.Unschedulable += cs.Unschedulable
		sum.Preemptions += cs.Preemptions
		sum.Victims += cs.Victims
		sum.Held += cs.Held
	}
	eq("per-class bound sum", sum.Bound, st.Bound)
	eq("per-class unschedulable sum", sum.Unschedulable, st.Unschedulable)
	eq("per-class preemptions sum", sum.Preemptions, st.Preemptions)
	eq("per-class victims sum", sum.Victims, st.Victims)
	eq("per-class held sum", sum.Held, st.Held)

	var ring telemetry.PassTrace
	for _, tr := range sched.cfg.Trace.Snapshot() {
		ring.Bound += tr.Bound
		ring.Unschedulable += tr.Unschedulable
		ring.Gated += tr.Gated
		ring.Conflicts += tr.Conflicts
		ring.Held += tr.Held
		ring.Preemptions += tr.Preemptions
	}
	eq("ring bound sum", ring.Bound, st.Bound)
	eq("ring unschedulable sum", ring.Unschedulable, st.Unschedulable)
	eq("ring gated sum", ring.Gated, st.Gated)
	eq("ring conflicts sum", ring.Conflicts, st.Conflicts)
	eq("ring held sum", ring.Held, st.Held)
	eq("ring preemptions sum", ring.Preemptions, st.Preemptions)
	return st
}

// midCycle is a hook (see hooked) that lets a test act between a pod's
// placement decision and its commit — the window in which a concurrent
// scheduler or an operator would invalidate the plan. It acts once per
// pod, on the pod's first candidate, which binpack selects on standard
// nodes.
type midCycle map[string]func(node string)

func (m midCycle) hook(pod *PodInfo, first *NodeView, _ *ClusterView) {
	if act := m[pod.Pod.Name]; act != nil {
		delete(m, pod.Pod.Name)
		act(first.Name)
	}
}

// midScore is midCycle run before it, with no node: a hook that lets a
// test act, once, while a pod's candidates are being rated. A pod with no
// feasible node has no candidate until the preemption planner replays its
// policy against a simulated post-eviction node, so for such a pod the
// act lands between the choice of a victim set and its eviction.
type midScore map[string]func()

func (m midScore) hook(pod *PodInfo, _ *NodeView, _ *ClusterView) {
	if act := m[pod.Pod.Name]; act != nil {
		delete(m, pod.Pod.Name)
		act()
	}
}

// passTallyEveryOutcome drives one scheduler through every outcome a
// cycle can report — an idle pass, held, bound, a budget stop on
// bound+held, unschedulable, gated, a non-stale and a stale conflict (the
// latter ending its pass), a preemption with two victims, a planned
// eviction the server refuses — across all four class slots, and requires
// Stats, the registry and the trace ring to agree on every counter after
// every pass, and the victims counted to be the requeues on the stream.
func passTallyEveryOutcome(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk, apiserver.WithAdmission(apiserver.AdmitStrict))
	for _, name := range []string{"n1", "n2"} {
		alloc := resource.List{resource.Memory: 10 * resource.GiB}
		if err := srv.RegisterNode(&api.Node{Name: name, Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
			t.Fatal(err)
		}
	}
	gd := NewGangDirector(clk, srv, GangConfig{})
	defer gd.Close()
	hooks, scoring := midCycle{}, midScore{}
	reg := telemetry.New()
	requeued := 0
	defer srv.Subscribe(func(ev apiserver.WatchEvent) {
		if ev.Type == apiserver.PodUpdated && !ev.Pod.IsTerminal() && ev.Pod.Spec.NodeName == "" {
			requeued++
		}
	})()
	sched, err := New(clk, srv, nil, Config{
		Name:             "tally",
		Policy:           hooked{hooked{Binpack{}, hooks.hook}, scoring.hook},
		Gang:             gd,
		MaxBindsPerPass:  2,
		Telemetry:        reg,
		Trace:            telemetry.NewTraceRing(64),
		TraceDetailEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	submit := func(p *api.Pod, class api.WorkloadClass, scheduler string) {
		t.Helper()
		p.Spec.Class, p.Spec.SchedulerName = class, scheduler
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	pass := func(wantBound int) Stats {
		t.Helper()
		calls++
		if got := sched.ScheduleOnce(); got != wantBound {
			t.Fatalf("pass %d bound %d pods, want %d", calls, got, wantBound)
		}
		return assertOneTally(t, sched, reg, calls)
	}
	pendingUnbound := func(name string) {
		t.Helper()
		if p, _ := srv.GetPod(name); p.Status.Phase != api.PodPending || p.Spec.NodeName != "" {
			t.Fatalf("pod %s = %s on %q, want Pending unbound", name, p.Status.Phase, p.Spec.NodeName)
		}
	}

	// Pass 1, idle: counted as a pass, traced nowhere.
	pass(0)
	if n := len(sched.cfg.Trace.Snapshot()); n != 0 {
		t.Fatalf("idle pass left %d traces", n)
	}

	// Pass 2: a gang member below quorum is held, a solo pod binds, and
	// the budget of 2 on bound+held stops the pass before the third pod.
	submit(memGangPod("ring-0", "ring", 2, resource.GiB, 0), api.ClassBatch, "tally")
	submit(memPod("a", resource.GiB, 0), api.ClassUnspecified, "tally")
	submit(memPod("b", resource.GiB, 0), api.ClassBestEffort, "tally")
	if st := pass(1); st.Held != 1 || st.Class(api.ClassBatch).Held != 1 || st.Unschedulable != 0 {
		t.Fatalf("after the budget-stopped pass: %+v", st)
	}
	pendingUnbound("b")

	// Pass 3: b binds; a pod no node can hold is unschedulable; a gang of
	// three 9 GiB members can never fit two 10 GiB nodes and is gated.
	submit(memPod("huge", 1<<50, 0), api.ClassBestEffort, "tally")
	submit(memGangPod("big-0", "big", 3, 9*resource.GiB, 0), api.ClassBatch, "tally")
	if st := pass(1); st.Gated != 1 || st.Class(api.ClassBestEffort).Unschedulable != 1 {
		t.Fatalf("after the gated/unschedulable pass: %+v", st)
	}

	// Pass 4: "raced" is bound by hand between its scoring and its commit
	// (a non-stale conflict: skip the pod, keep going); "loser" has its
	// node filled by another scheduler's pod in the same window (a stale
	// conflict: the view is provably outdated, the pass ends) — so
	// "after" is never looked at.
	hooks["raced"] = func(node string) {
		if err := srv.Bind("raced", node); err != nil {
			t.Errorf("hand bind: %v", err)
		}
	}
	hooks["loser"] = func(node string) {
		fill := 10*resource.GiB - srv.Committed(node).Get(resource.Memory)
		submit(memPod("rival", fill, 0), api.ClassUnspecified, "other")
		if err := srv.Bind("rival", node); err != nil {
			t.Errorf("rival bind: %v", err)
		}
	}
	submit(memPod("raced", resource.GiB, 0), api.ClassUnspecified, "tally")
	submit(memPod("loser", resource.GiB, 0), api.ClassUnspecified, "tally")
	submit(memPod("after", resource.GiB, 0), api.ClassUnspecified, "tally")
	before := sched.Stats()
	if st := pass(0); st.Conflicts != 2 || st.Unschedulable != before.Unschedulable+1 || st.Gated != before.Gated+1 {
		t.Fatalf("after the conflict pass: %+v (before %+v)", st, before)
	}
	pendingUnbound("loser")
	pendingUnbound("after")

	// Pass 5: from a refreshed view both land on the other node — and
	// spend the budget again.
	pass(2)

	// Pass 6: a latency-sensitive pod that fits nowhere evicts two of the
	// three pods on n2 (the cheaper victim set) and binds in the same
	// pass.
	submit(memPod("vip", 9*resource.GiB, 100), api.ClassLatencySensitive, "tally")
	st := pass(1)
	if ls := st.Class(api.ClassLatencySensitive); ls.Preemptions != 1 || ls.Victims != 2 || ls.Bound != 1 {
		t.Fatalf("after the preemption pass: %+v", st)
	}
	if vip, _ := srv.GetPod("vip"); vip.Spec.NodeName != "n2" {
		t.Fatalf("vip on %q, want n2", vip.Spec.NodeName)
	}

	// Pass 7: "late" fits nowhere either and plans to evict "a" — which
	// finishes on its own while the planner is still replaying the
	// policy (in a concurrent fleet: another member evicts the same
	// victim first). The server refuses the eviction, so no preemption
	// and no victim may be counted — the stream shows no requeue — yet the
	// cycle's re-check finds the room "a" left behind and binds in the
	// same pass.
	scoring["late"] = func() {
		if err := srv.MarkSucceeded("a"); err != nil {
			t.Errorf("finishing the planned victim: %v", err)
		}
	}
	submit(memPod("late", resource.GiB, 50), api.ClassUnspecified, "tally")
	before = st
	st = pass(1)
	if len(scoring) != 0 {
		t.Fatal("the planner never replayed late's policy: the refused-eviction case did not run")
	}
	if st.Preemptions != before.Preemptions || st.Victims != before.Victims {
		t.Fatalf("a refused eviction was counted: %+v (before %+v)", st, before)
	}
	if a, _ := srv.GetPod("a"); a.Status.Phase != api.PodSucceeded {
		t.Fatalf("a = %s, want Succeeded (never evicted)", a.Status.Phase)
	}
	if late, _ := srv.GetPod("late"); late.Spec.NodeName != "n1" {
		t.Fatalf("late on %q, want n1 (the room a left)", late.Spec.NodeName)
	}
	if requeued != st.Victims {
		t.Fatalf("Stats.Victims = %d, but the watch stream shows %d requeues", st.Victims, requeued)
	}
	if n := len(sched.cfg.Trace.Snapshot()); n != calls-1 {
		t.Fatalf("ring holds %d traces, want one per non-idle pass (%d)", n, calls-1)
	}
}

// TestPassCostIndependentOfQueueDepth: a pass pulls the queue as it
// spends its budget, so what it costs is what it cycled. With a bind
// budget of 64 and every pod schedulable, a pass over a 1k-deep and a
// 100k-deep queue examines the same pods (PassTrace.Pending — queue
// entries copied), binds the same number,
// and a steady-state pass allocates the same at both depths.
func TestPassCostIndependentOfQueueDepth(t *testing.T) {
	type cost struct {
		examined, bound int
		allocs          float64
	}
	measure := func(depth int) cost {
		cfg := Config{MaxBindsPerPass: 64, Telemetry: telemetry.New(), Trace: telemetry.NewTraceRing(1)}
		_, srv, sched := newBareScheduler(t, 8, cfg)
		for i := 0; i < depth; i++ {
			if err := srv.CreatePod(telemetryPod(fmt.Sprintf("pod-%06d", i), "telemetry-test", resource.MiB)); err != nil {
				t.Fatal(err)
			}
		}
		sched.ScheduleOnce() // warm the pass buffers
		var c cost
		if !raceEnabled {
			c.allocs = testing.AllocsPerRun(8, func() { sched.ScheduleOnce() })
		}
		tr := sched.cfg.Trace.Snapshot()[0]
		c.examined, c.bound = tr.Pending, tr.Bound
		if cap(sched.chunk) > 2*c.examined {
			t.Errorf("depth %d: the pass buffer holds %d entries after a pass that examined %d", depth, cap(sched.chunk), c.examined)
		}
		for _, e := range sched.chunk[:cap(sched.chunk)] {
			if e.pod != nil {
				t.Fatalf("depth %d: the pass buffer still pins pod %q after the pass", depth, e.pod.Name)
			}
		}
		return c
	}
	shallow, deep := measure(1_000), measure(100_000)
	if shallow.examined != 64 || shallow.bound != 64 {
		t.Fatalf("pass over the 1k queue examined %d pods and bound %d, want 64 and 64", shallow.examined, shallow.bound)
	}
	if deep != shallow {
		t.Fatalf("pass cost depends on queue depth: 1k-deep %+v, 100k-deep %+v", shallow, deep)
	}
}
