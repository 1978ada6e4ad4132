package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/model"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/telemetry"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// TestAuditCountsPlantedFault: the testbed's audit is handed one forged
// event, a bind past sgx-1's EPC at the stream's next rev, and refuses it
// as an over-commit. The server's own next event, the first kubelet's
// NotReady update at Close, comes at that rev too and is refused once
// more; the stream resumes after it, so closing reports exactly two. Every
// testbed counts its violations through this one audit, so a fault it
// cannot see is a fault every harness and the shipped cluster miss.
func TestAuditCountsPlantedFault(t *testing.T) {
	cfg := Paper(0)
	var planted error
	cfg.onEvent = func(_ *model.Cluster, ev apiserver.WatchEvent, refused error) {
		if ev.Pod != nil && ev.Pod.Name == "hog" {
			planted = refused
		}
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	pages := resource.PagesForBytes(sgx.GeometryForSize(DefaultEPC).UsableBytes()) + 1
	hog := &api.Pod{
		Name: "hog",
		Spec: api.PodSpec{
			NodeName: "sgx-1",
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.EPCPages: pages}},
			}},
		},
	}
	published := tb.Srv.WatchStats().Published
	tb.audit.apply([]apiserver.WatchEvent{{Type: apiserver.PodBound, Rev: published + 1, Pod: hog}})
	if a := tb.audit; a.violations != 1 || !errors.Is(planted, model.ErrOvercommit) {
		t.Fatalf("the audit counted %d violations in %d events, the forged bind refused with %v; want one ErrOvercommit",
			a.violations, a.events, planted)
	}
	err = tb.close()
	a, published := tb.audit, tb.Srv.WatchStats().Published
	if a.violations != 2 || int64(a.events) != published+1 || err == nil {
		t.Fatalf("after close the audit counted %d violations in %d events (%d published + 1 forged), verdict %v; want 2",
			a.violations, a.events, published, err)
	}
}

// TestAuditRefusesPlantedSecondRun: the testbed's audit is handed a
// forged second Running event for a pod the stream already left Running,
// at the stream's next rev. The server publishes one Running per binding,
// so the model refuses it as ErrRunTwice, the audit counts it as the
// model_violations gauge, and the class's run tally holds.
func TestAuditRefusesPlantedSecondRun(t *testing.T) {
	cfg := Paper(0)
	reg := telemetry.New()
	cfg.Scheduler.Telemetry = reg
	var planted error
	cfg.onEvent = func(_ *model.Cluster, ev apiserver.WatchEvent, refused error) {
		if ev.Pod != nil && ev.Pod.Name == "job" {
			planted = refused
		}
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Submit(&api.Pod{Name: "job", Spec: api.PodSpec{Containers: []api.Container{{
		Name:      "main",
		Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.GiB}},
		Workload:  api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: time.Hour},
	}}}}); err != nil {
		t.Fatal(err)
	}
	tb.Clk.Advance(time.Minute)
	running, err := tb.Srv.GetPod("job")
	if err != nil || running.Status.Phase != api.PodRunning || planted != nil {
		t.Fatalf("job = %+v, %v, audit verdict %v; want Running and accepted", running, err, planted)
	}
	slot := running.Spec.WorkloadClass().Slot()
	before := tb.audit.ByClass[slot]
	published := tb.Srv.WatchStats().Published
	tb.audit.apply([]apiserver.WatchEvent{{Type: apiserver.PodUpdated, Rev: published + 1, Pod: running}})
	if a := tb.audit; a.violations != 1 || !errors.Is(planted, model.ErrRunTwice) || a.ByClass[slot] != before {
		t.Fatalf("the audit counted %d violations, refused the forged Running with %v, tally %+v → %+v; want one ErrRunTwice and no new run",
			a.violations, planted, before, a.ByClass[slot])
	}
	if v := reg.Gauge("model_violations").Value(); v != 1 {
		t.Fatalf("model_violations = %v, want 1", v)
	}
}

// TestAuditSeesWholeStream: the audit of every testbed is sent every event
// the server published, from the first node's registration to the
// kubelets' NotReady updates at Close, and refuses none of a clean run's:
// on ReplayBorgTrace's testbed (the §VI-A preset under Replay) and on one
// shaped as sgxorch.NewCluster builds it (telemetry, with one gang among its jobs), where the refusals are the model_violations gauge.
func TestAuditSeesWholeStream(t *testing.T) {
	trace := &borg.Trace{Jobs: evalTrace(1).Jobs[:20], Horizon: time.Hour}
	t.Run("replay", func(t *testing.T) {
		tb, err := NewTestbed(Paper(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Replay(ReplayConfig{Trace: trace, SGXRatio: 0.5, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		checkWholeStream(t, tb)
	})
	t.Run("cluster", func(t *testing.T) {
		cfg := Paper(0)
		reg := telemetry.New()
		cfg.Scheduler.Telemetry, cfg.Scheduler.Trace = reg, telemetry.NewTraceRing(0)
		tb, err := NewTestbed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		for i, record := range trace.Jobs {
			job := TraceJob(traceJobName(record.ID), record, i%4 == 3, false)
			if i < 4 {
				job.Gang, job.GangMinMember = "g", 4
			}
			if err := tb.Submit(multiSchedPod(job)); err != nil {
				t.Fatal(err)
			}
		}
		if !tb.Clk.Run(tb.Srv.AllTerminal, tb.Clk.Now().Add(24*time.Hour)) {
			t.Fatal("jobs still live after 24h")
		}
		if err := tb.close(); err != nil {
			t.Fatal(err)
		}
		if commits := tb.Gang.Stats().Commits; commits != 1 {
			t.Fatalf("gang commits = %d, want the one gang committed", commits)
		}
		checkWholeStream(t, tb)
		if v := reg.Gauge("model_violations").Value(); v != 0 {
			t.Fatalf("model_violations = %v", v)
		}
	})
}

// TestAuditGaugeReadConcurrently: the model_violations gauge is read on
// one goroutine while a concurrent fleet's binds deliver events to the
// audit on others (the race detector's case; run it under -race).
func TestAuditGaugeReadConcurrently(t *testing.T) {
	cfg := Paper(0)
	reg := telemetry.New()
	cfg.Scheduler.Telemetry = reg
	cfg.Shards, cfg.Concurrent = 2, true
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	gauge := reg.Gauge("model_violations")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if v := gauge.Value(); v != 0 {
					t.Errorf("model_violations = %v mid-run", v)
					return
				}
				runtime.Gosched()
			}
		}
	}()
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	for _, job := range evalTrace(1).Jobs[:40] {
		if err := tb.Submit(multiSchedPod(TraceJob(traceJobName(job.ID), job, false, false))); err != nil {
			t.Fatal(err)
		}
	}
	drained := tb.Clk.Run(tb.Srv.AllTerminal, tb.Clk.Now().Add(24*time.Hour))
	stop()
	if err := tb.close(); err != nil || !drained {
		t.Fatalf("drained = %v, verdict %v", drained, err)
	}
	checkWholeStream(t, tb)
}

// checkWholeStream compares a closed testbed's audit with the server's
// count of what it published.
func checkWholeStream(t *testing.T, tb *Testbed) {
	t.Helper()
	published := tb.Srv.WatchStats().Published
	if a := tb.audit; int64(a.events) != published || a.violations != 0 {
		t.Fatalf("audit saw %d events with %d violations; the server published %d",
			a.events, a.violations, published)
	}
}

// recordNodeEvents makes cfg's audit hook record every node event of the
// stream as "name:ready" or "name:notready".
func recordNodeEvents(cfg *TestbedConfig, into *[]string) {
	cfg.onEvent = func(_ *model.Cluster, ev apiserver.WatchEvent, _ error) {
		if ev.Node == nil {
			return
		}
		state := "ready"
		if !ev.Node.Ready {
			state = "notready"
		}
		*into = append(*into, ev.Node.Name+":"+state)
	}
}

// TestTestbedAuditSeesFirstEvent: the audit subscribes before the first
// node registers, so its first event is rev 1, the master's registration,
// and the §VI-A preset comes up as the paper describes it.
func TestTestbedAuditSeesFirstEvent(t *testing.T) {
	cfg := Paper(0)
	var first *apiserver.WatchEvent
	cfg.onEvent = func(_ *model.Cluster, ev apiserver.WatchEvent, _ error) {
		if first == nil {
			first = &ev
		}
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	if first == nil || first.Type != apiserver.NodeRegistered || first.Rev != 1 || first.Node.Name != "master" {
		t.Fatalf("first event = %+v, want rev 1 NodeRegistered master", first)
	}
	if !first.Node.Unschedulable {
		t.Fatal("master registered schedulable")
	}
	var names []string
	sgxNodes := 0
	for _, kl := range tb.Kubelets {
		names = append(names, kl.NodeName())
		if kl.Plugin() != nil {
			sgxNodes++
		}
	}
	if want := []string{"master", "std-1", "std-2", "sgx-1", "sgx-2"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("kubelets = %v, want %v", names, want)
	}
	if sgxNodes != SGXNodes || tb.DB == nil {
		t.Fatalf("%d SGX nodes, DB %v; want %d and a monitoring plane", sgxNodes, tb.DB, SGXNodes)
	}
}

// TestTestbedCloseStopsKubeletsInNodeOrder: Close stops the kubelets in
// node order — their NotReady updates reach the audit, still subscribed,
// in that order — and everything else with them, so nothing is left on
// the clock; a second Close does nothing.
func TestTestbedCloseStopsKubeletsInNodeOrder(t *testing.T) {
	cfg := Paper(0)
	cfg.Nodes, cfg.NoEnforcement = Fleet(2, 1, DefaultEPC, true), true
	reg := telemetry.New()
	cfg.Scheduler.Telemetry = reg
	var events []string
	recordNodeEvents(&cfg, &events)
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Tracker == nil {
		t.Fatal("a testbed with telemetry has no tracker")
	}
	tb.Clk.Advance(10 * time.Second)
	// The tracker rides the audit's delivery: the stream's subscribers
	// are the kubelets, the scheduler's cache and the audit.
	if got, want := tb.Srv.WatchStats().Subscribers, len(tb.Kubelets)+2; got != want {
		t.Fatalf("watch subscribers = %d, want %d (a kubelet per node, the cache, the audit)", got, want)
	}
	if len(tb.DB.Measurements()) == 0 {
		t.Fatal("a scrape interval passed and the TSDB is empty")
	}

	tb.Close()
	tb.Close()
	want := []string{
		"std-1:ready", "std-2:ready", "sgx-1:ready",
		"std-1:notready", "std-2:notready", "sgx-1:notready",
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("node events = %v, want %v", events, want)
	}
	if tb.Clk.Step() {
		t.Fatal("a periodic is still live after Close")
	}
}

// TestTestbedFailedStartStopsStartedNodes: a node that fails to start
// fails NewTestbed with its name, after the nodes already started are
// stopped and nothing is left on the clock.
func TestTestbedFailedStartStopsStartedNodes(t *testing.T) {
	cfg := Paper(0)
	cfg.Nodes = Fleet(2, 0, 0, false)
	cfg.Nodes = append(cfg.Nodes, cfg.Nodes[0])
	var events []string
	recordNodeEvents(&cfg, &events)
	clk := clock.NewSim()
	tb, err := newTestbed(clk, cfg)
	if tb != nil || err == nil || !strings.Contains(err.Error(), "std-1") {
		t.Fatalf("NewTestbed with a duplicate node = %v, %v", tb, err)
	}
	want := []string{"std-1:ready", "std-2:ready", "std-1:notready", "std-2:notready"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("node events = %v, want %v", events, want)
	}
	if n := clk.Len(); n != 0 {
		t.Fatalf("%d events on the clock after a failed start, want none", n)
	}
}

// TestTestbedRefusesBadNodeBeforeBuilding: a bad node appended to a
// valid fleet fails NewTestbed before the first node registers, so no
// node event reaches the stream and nothing is left on the clock.
func TestTestbedRefusesBadNodeBeforeBuilding(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  Node
	}{
		{"unnamed", Node{RAMBytes: SGXNodeRAM, CPUMillis: NodeCPU}},
		{"zero RAM", Node{Name: "bad", CPUMillis: NodeCPU}},
		{"negative RAM", Node{Name: "bad", RAMBytes: -SGXNodeRAM, CPUMillis: NodeCPU}},
		{"negative CPU", Node{Name: "bad", RAMBytes: SGXNodeRAM, CPUMillis: -1}},
		{"negative EPCSize", Node{Name: "bad", RAMBytes: SGXNodeRAM, CPUMillis: NodeCPU, SGX: true, EPCSize: -resource.MiB}},
	} {
		bad := tc.bad
		t.Run(tc.name, func(t *testing.T) {
			cfg := Paper(0)
			cfg.Nodes = append(Fleet(1, 1, 0, false), bad)
			var events []string
			recordNodeEvents(&cfg, &events)
			clk := clock.NewSim()
			tb, err := newTestbed(clk, cfg)
			if tb != nil || err == nil {
				t.Fatalf("NewTestbed with node %+v = %v, %v; want an error", bad, tb, err)
			}
			if len(events) != 0 {
				t.Fatalf("node events %v before the refusal, want none", events)
			}
			if n := clk.Len(); n != 0 {
				t.Fatalf("%d events on the clock after a refused start, want none", n)
			}
		})
	}
}

// TestTestbedNodeDefaults: SGX2 implies SGX, an SGX machine without an
// EPC size gets DefaultEPC, and a machine without SGX has no EPC even if
// one is named. Cfg.Nodes holds the defaulted nodes, which is what
// deployMalicious reads, so Paper(0)'s SGX machines carry DefaultEPC
// there.
func TestTestbedNodeDefaults(t *testing.T) {
	cfg := Paper(0)
	cfg.Nodes = []Node{
		{Name: "edmm", RAMBytes: SGXNodeRAM, CPUMillis: NodeCPU, SGX2: true},
		{Name: "plain", RAMBytes: StdNodeRAM, CPUMillis: NodeCPU, EPCSize: 64 * resource.MiB},
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	want := []Node{
		{Name: "edmm", RAMBytes: SGXNodeRAM, CPUMillis: NodeCPU, SGX: true, EPCSize: DefaultEPC, SGX2: true},
		{Name: "plain", RAMBytes: StdNodeRAM, CPUMillis: NodeCPU},
	}
	if !reflect.DeepEqual(tb.Cfg.Nodes, want) {
		t.Fatalf("Cfg.Nodes = %+v, want %+v", tb.Cfg.Nodes, want)
	}
	edmm, plain := tb.Kubelets[0], tb.Kubelets[1]
	if edmm.Plugin() == nil || !edmm.Machine().SGX().SGX2() || plain.Plugin() != nil {
		t.Fatalf("edmm plugin %v, plain plugin %v; want an SGX 2 machine and a plain one", edmm.Plugin(), plain.Plugin())
	}

	paper, err := NewTestbed(Paper(0))
	if err != nil {
		t.Fatal(err)
	}
	defer paper.Close()
	sgxNodes := 0
	for _, n := range paper.Cfg.Nodes {
		if n.SGX {
			sgxNodes++
			if n.EPCSize != DefaultEPC {
				t.Fatalf("Paper(0) node %s: EPCSize %d, want DefaultEPC", n.Name, n.EPCSize)
			}
		}
	}
	if sgxNodes != SGXNodes {
		t.Fatalf("Paper(0) has %d SGX nodes, want %d", sgxNodes, SGXNodes)
	}
}

// TestTestbedWithoutScrapeIntervalBuildsNoMonitoring: without a scrape
// interval there is no TSDB, tracker or self-scrape, and the control
// round, which then runs the pass alone, is the one entry on the clock.
func TestTestbedWithoutScrapeIntervalBuildsNoMonitoring(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{
		Nodes:     Fleet(1, 1, DefaultEPC, false),
		Scheduler: core.Config{Name: SchedulerName, Policy: core.Binpack{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tb.DB != nil || tb.Tracker != nil {
		t.Fatalf("DB = %v, Tracker = %v; want neither", tb.DB, tb.Tracker)
	}
	if n := tb.Clk.Len(); n != 1 {
		t.Fatalf("%d events on the clock, want the control round alone", n)
	}
}

// TestSameInstantOrder pins the control round's code order: at an
// instant every scrape and the pass share, Heapster's memory/usage writes
// come first, then each SGX probe's sgx/epc writes in node order, then
// the self-scrape's, and the pass's bind last. That is the code order of
// the one control round, not the order in which separate timers were
// last re-armed, so it holds at any pass interval: the rows run the pass
// at the scrape interval and at IntervalAblation's 15 s, where a timer
// per step ran the pass on the previous scrape.
func TestSameInstantOrder(t *testing.T) {
	for _, pass := range []time.Duration{Paper(0).ScrapeInterval, 15 * time.Second} {
		t.Run(pass.String(), func(t *testing.T) { testSameInstantOrder(t, pass) })
	}
}

// testSameInstantOrder checks the order at the 30 s instant, which the
// scrapes share with a pass every pass interval.
func testSameInstantOrder(t *testing.T, pass time.Duration) {
	cfg := Paper(0)
	cfg.Scheduler.Telemetry = telemetry.New()
	cfg.Scheduler.Interval = pass
	var at time.Time
	var clk *clock.Sim
	var order []string
	// note appends what happened at the instant under test, once per run
	// of equal entries.
	note := func(what string) {
		if at.IsZero() || !clk.Now().Equal(at) {
			return
		}
		if len(order) == 0 || order[len(order)-1] != what {
			order = append(order, what)
		}
	}
	cfg.onEvent = func(_ *model.Cluster, ev apiserver.WatchEvent, _ error) {
		if ev.Type == apiserver.PodBound {
			note("bound " + ev.Pod.Name)
		}
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	clk = tb.Clk
	tb.DB.OnWrite(func(measurement string, tags tsdb.Tags, _ float64, _ time.Time) {
		switch {
		case strings.HasPrefix(measurement, telemetry.SelfScrapeMeasurementPrefix):
			note("self")
		case measurement == monitor.MeasurementEPC:
			note(measurement + " " + tags[monitor.TagNode])
		default:
			note(measurement)
		}
	})
	pod := func(name string, req resource.List) *api.Pod {
		return &api.Pod{Name: name, Spec: api.PodSpec{Containers: []api.Container{{
			Name:      "main",
			Resources: api.Requirements{Requests: req},
			Workload:  api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: time.Hour},
		}}}}
	}
	// Two enclave pods, each over half an SGX node's EPC, take one SGX
	// node each at the first pass; a third pod waits for the pass at the
	// instant under test.
	start := clk.Now()
	for _, name := range []string{"enclave-a", "enclave-b"} {
		if err := tb.Submit(pod(name, resource.List{resource.EPCPages: resource.PagesForBytes(60 * resource.MiB)})); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(25 * time.Second)
	a, errA := tb.Srv.GetPod("enclave-a")
	b, errB := tb.Srv.GetPod("enclave-b")
	if errA != nil || errB != nil || a.Spec.NodeName != "sgx-1" || b.Spec.NodeName != "sgx-2" {
		t.Fatalf("enclave pods on %q and %q (%v, %v); want sgx-1 and sgx-2", a.Spec.NodeName, b.Spec.NodeName, errA, errB)
	}
	if err := tb.Submit(pod("late", resource.List{resource.Memory: resource.GiB})); err != nil {
		t.Fatal(err)
	}
	at = start.Add(30 * time.Second)
	clk.Advance(10 * time.Second)
	want := []string{monitor.MeasurementMemory, monitor.MeasurementEPC + " sgx-1", monitor.MeasurementEPC + " sgx-2", "self", "bound late"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("at one shared instant: %q, want %q", order, want)
	}
}
