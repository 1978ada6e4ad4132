package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/influxql"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// testCluster wires a miniature version of the paper's testbed: standard
// nodes, SGX nodes, kubelets, monitoring and one scheduler.
type testCluster struct {
	clk      *clock.Sim
	srv      *apiserver.Server
	db       *tsdb.DB
	sched    *Scheduler
	kubelets []*kubelet.Kubelet
}

type clusterSpec struct {
	stdNodes    int
	sgxNodes    int
	policy      Policy
	useMetrics  bool
	enforcement bool
}

func newTestCluster(t *testing.T, spec clusterSpec) *testCluster {
	t.Helper()
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	db, kubelets := startNodes(t, clk, srv, spec.stdNodes, spec.sgxNodes, spec.enforcement)

	policy := spec.policy
	if policy == nil {
		policy = Binpack{}
	}
	sched, err := New(clk, srv, db, Config{
		Name:       "sgx-sched",
		Policy:     policy,
		UseMetrics: spec.useMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	t.Cleanup(clock.Periodic(clk, 5*time.Second, func() { sched.ScheduleOnce() }))
	return &testCluster{clk: clk, srv: srv, db: db, sched: sched, kubelets: kubelets}
}

// subscribeEach subscribes fn to srv's whole stream one event at a time.
func subscribeEach(srv *apiserver.Server, fn func(apiserver.WatchEvent)) (unsubscribe func()) {
	return srv.SubscribeBatch(func(evs []apiserver.WatchEvent) {
		for _, ev := range evs {
			fn(ev)
		}
	}, nil)
}

// startNodes starts std standard and sgxNodes SGX machines of the §VI-A
// models (std-1…, then sgx-1… with 128 MiB of PRM), one kubelet each, and
// the monitoring plane over them: a TSDB, Heapster and the probe
// DaemonSet, scraping every 10 s. It builds them in the experiments
// testbed's order, so what fires at one instant fires as it does there,
// and the test's cleanup stops them in reverse, the kubelets in node
// order.
func startNodes(t *testing.T, clk *clock.Sim, srv *apiserver.Server, std, sgxNodes int, enforcement bool) (*tsdb.DB, []*kubelet.Kubelet) {
	t.Helper()
	db := tsdb.New(clk)
	t.Cleanup(db.Close)
	var kubelets []*kubelet.Kubelet
	t.Cleanup(func() {
		for _, kl := range kubelets {
			kl.Stop()
		}
	})
	var driverOpts []isgx.Option
	if !enforcement {
		driverOpts = append(driverOpts, isgx.WithoutEnforcement())
	}
	for i := 1; i <= std+sgxNodes; i++ {
		var m *machine.Machine
		if i <= std {
			m = machine.New(fmt.Sprintf("std-%d", i), 64*resource.GiB, 8000)
		} else {
			m = machine.New(fmt.Sprintf("sgx-%d", i-std), 8*resource.GiB, 8000,
				machine.WithSGX(sgx.GeometryForSize(128*resource.MiB), driverOpts...))
		}
		kl := kubelet.New(clk, srv, m)
		if err := kl.Start(); err != nil {
			t.Fatal(err)
		}
		kubelets = append(kubelets, kl)
	}
	heapster := monitor.NewHeapster(clk, db, 10*time.Second)
	for _, kl := range kubelets {
		heapster.AddSource(kl)
	}
	t.Cleanup(clock.Periodic(clk, 10*time.Second, heapster.Scrape))
	for _, probe := range monitor.NewProbes(db, kubelets) {
		t.Cleanup(clock.Periodic(clk, 10*time.Second, probe.Scrape))
	}
	return db, kubelets
}

func (c *testCluster) submit(t *testing.T, pod *api.Pod) {
	t.Helper()
	pod.Spec.SchedulerName = "sgx-sched"
	if err := c.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
}

func epcJob(name string, pages int64, allocBytes int64, dur time.Duration) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{Containers: []api.Container{{
			Name: "main",
			Resources: api.Requirements{
				Requests: resource.List{resource.Memory: 32 * resource.MiB, resource.EPCPages: pages},
				Limits:   resource.List{resource.EPCPages: pages},
			},
			Workload: api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: dur, AllocBytes: allocBytes},
		}}},
	}
}

func memJob(name string, reqBytes, allocBytes int64, dur time.Duration) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{Containers: []api.Container{{
			Name:      "main",
			Resources: api.Requirements{Requests: resource.List{resource.Memory: reqBytes}},
			Workload:  api.WorkloadSpec{Kind: api.WorkloadStressVM, Duration: dur, AllocBytes: allocBytes},
		}}},
	}
}

func TestMixedPlacementRespectsHardware(t *testing.T) {
	c := newTestCluster(t, clusterSpec{stdNodes: 2, sgxNodes: 2, useMetrics: true, enforcement: true})
	c.submit(t, epcJob("sgx-job", 1000, 3*resource.MiB, 30*time.Second))
	c.submit(t, memJob("std-job", resource.GiB, resource.GiB, 30*time.Second))
	c.clk.Advance(10 * time.Second)

	sgxPod, _ := c.srv.GetPod("sgx-job")
	if sgxPod.Spec.NodeName != "sgx-1" && sgxPod.Spec.NodeName != "sgx-2" {
		t.Fatalf("SGX job on %q", sgxPod.Spec.NodeName)
	}
	stdPod, _ := c.srv.GetPod("std-job")
	if stdPod.Spec.NodeName != "std-1" && stdPod.Spec.NodeName != "std-2" {
		t.Fatalf("standard job on %q (must avoid SGX nodes)", stdPod.Spec.NodeName)
	}

	c.clk.Advance(2 * time.Minute)
	for _, name := range []string{"sgx-job", "std-job"} {
		p, _ := c.srv.GetPod(name)
		if p.Status.Phase != api.PodSucceeded {
			t.Fatalf("%s phase = %s (%s)", name, p.Status.Phase, p.Status.Reason)
		}
	}
}

func TestEPCSaturationQueuesFCFS(t *testing.T) {
	c := newTestCluster(t, clusterSpec{sgxNodes: 1, useMetrics: true, enforcement: true})
	// Each job needs just over half the EPC items: they must serialise.
	for i := 0; i < 3; i++ {
		c.submit(t, epcJob(fmt.Sprintf("job-%d", i), 12500, 40*resource.MiB, 30*time.Second))
		c.clk.Advance(time.Second)
	}
	c.clk.Advance(9 * time.Second)

	running := c.srv.ListPods(func(p *api.Pod) bool { return p.Status.Phase == api.PodRunning })
	if len(running) != 1 || running[0].Name != "job-0" {
		t.Fatalf("running = %v, want only job-0", podNames(running))
	}

	c.clk.Advance(5 * time.Minute)
	if !c.srv.AllTerminal() {
		t.Fatal("jobs did not all finish")
	}
	// FCFS: waiting times must be ordered by submission.
	var waits []time.Duration
	for i := 0; i < 3; i++ {
		p, _ := c.srv.GetPod(fmt.Sprintf("job-%d", i))
		if p.Status.Phase != api.PodSucceeded {
			t.Fatalf("%s = %s (%s)", p.Name, p.Status.Phase, p.Status.Reason)
		}
		w, _ := p.WaitingTime()
		waits = append(waits, w)
	}
	if !(waits[0] < waits[1] && waits[1] < waits[2]) {
		t.Fatalf("waits not FCFS-ordered: %v", waits)
	}
}

func TestUsageAwareSchedulerPacksMemoryByUsage(t *testing.T) {
	c := newTestCluster(t, clusterSpec{stdNodes: 1, useMetrics: true, enforcement: true})
	// Over-declaring job: requests 60 GiB, uses 2 GiB.
	c.submit(t, memJob("over", 60*resource.GiB, 2*resource.GiB, 10*time.Minute))
	c.clk.Advance(10 * time.Second)
	// Second job requests 30 GiB: request-based accounting says 60+30 >
	// 64 GiB, but measured usage (2 GiB) frees the headroom once the
	// first pod's metrics mature.
	c.submit(t, memJob("second", 30*resource.GiB, 20*resource.GiB, 10*time.Minute))
	c.clk.Advance(60 * time.Second)

	second, _ := c.srv.GetPod("second")
	if second.Status.Phase != api.PodRunning {
		t.Fatalf("usage-aware scheduler did not pack second job: %s (%s)",
			second.Status.Phase, second.Status.Reason)
	}
	over, _ := c.srv.GetPod("over")
	if over.Status.Phase != api.PodRunning {
		t.Fatalf("first job = %s", over.Status.Phase)
	}
}

func TestRequestOnlySchedulerDoesNotPackByUsage(t *testing.T) {
	c := newTestCluster(t, clusterSpec{stdNodes: 1, useMetrics: false, enforcement: true})
	c.submit(t, memJob("over", 60*resource.GiB, 2*resource.GiB, 10*time.Minute))
	c.clk.Advance(10 * time.Second)
	c.submit(t, memJob("second", 30*resource.GiB, 20*resource.GiB, 10*time.Minute))
	c.clk.Advance(2 * time.Minute)

	second, _ := c.srv.GetPod("second")
	if second.Status.Phase != api.PodPending {
		t.Fatalf("request-only scheduler packed by usage: %s", second.Status.Phase)
	}
}

func TestMaliciousUsageThrottlesAdmissions(t *testing.T) {
	// Enforcement disabled (Fig. 11 "limits disabled"): the malicious
	// pod's measured EPC blocks honest admissions via the usage-aware
	// scheduler.
	c := newTestCluster(t, clusterSpec{sgxNodes: 1, useMetrics: true, enforcement: false})
	half := int64(11968 * 4096)
	c.submit(t, epcJob("malicious", 1, half, 10*time.Hour))
	c.clk.Advance(40 * time.Second) // metrics mature

	c.submit(t, epcJob("honest", 15000, 40*resource.MiB, 30*time.Second))
	c.clk.Advance(60 * time.Second)

	honest, _ := c.srv.GetPod("honest")
	if honest.Status.Phase != api.PodPending {
		t.Fatalf("honest pod = %s, want Pending (blocked by malicious usage)", honest.Status.Phase)
	}
	if got := c.sched.Stats().Unschedulable; got == 0 {
		t.Fatal("scheduler did not record unschedulable attempts")
	}
}

func TestEnforcementKillsMaliciousAndFreesHonest(t *testing.T) {
	// Enforcement enabled (Fig. 11 "limits enabled"): the malicious pod
	// dies at enclave init, the honest pod proceeds.
	c := newTestCluster(t, clusterSpec{sgxNodes: 1, useMetrics: true, enforcement: true})
	half := int64(11968 * 4096)
	c.submit(t, epcJob("malicious", 1, half, 10*time.Hour))
	c.clk.Advance(40 * time.Second)

	mal, _ := c.srv.GetPod("malicious")
	if mal.Status.Phase != api.PodFailed {
		t.Fatalf("malicious pod = %s, want Failed", mal.Status.Phase)
	}

	c.submit(t, epcJob("honest", 15000, 40*resource.MiB, 30*time.Second))
	c.clk.Advance(2 * time.Minute)
	honest, _ := c.srv.GetPod("honest")
	if honest.Status.Phase != api.PodSucceeded {
		t.Fatalf("honest pod = %s (%s)", honest.Status.Phase, honest.Status.Reason)
	}
}

func TestMultipleSchedulersCoexist(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	db := tsdb.New(clk)
	m := machine.New("std-1", 64*resource.GiB, 8000)
	kl := kubelet.New(clk, srv, m)
	if err := kl.Start(); err != nil {
		t.Fatal(err)
	}
	defer kl.Stop()

	mk := func(name string, policy Policy) *Scheduler {
		s, err := New(clk, srv, db, Config{Name: name, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		t.Cleanup(clock.Periodic(clk, time.Second, func() { s.ScheduleOnce() }))
		return s
	}
	a := mk("sched-a", Binpack{})
	b := mk("sched-b", Spread{})

	podA := memJob("pod-a", resource.GiB, resource.GiB, 10*time.Second)
	podA.Spec.SchedulerName = "sched-a"
	podB := memJob("pod-b", resource.GiB, resource.GiB, 10*time.Second)
	podB.Spec.SchedulerName = "sched-b"
	if err := srv.CreatePod(podA); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreatePod(podB); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)

	if got := a.Stats().Bound; got != 1 {
		t.Fatalf("sched-a bound %d", got)
	}
	if got := b.Stats().Bound; got != 1 {
		t.Fatalf("sched-b bound %d", got)
	}
}

func TestSchedulerConfigValidation(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	if _, err := New(clk, srv, nil, Config{Policy: Binpack{}}); err == nil {
		t.Fatal("missing name accepted")
	}
	if _, err := New(clk, srv, nil, Config{Name: "s"}); err == nil {
		t.Fatal("missing policy accepted")
	}
	if _, err := New(clk, srv, nil, Config{Name: "s", Policy: Binpack{}, UseMetrics: true}); err == nil {
		t.Fatal("UseMetrics without db accepted")
	}
	s, err := New(clk, srv, nil, Config{Name: "s", Policy: Binpack{}})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Window != DefaultWindow {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}

func TestCustomWindowBuildsExactOffset(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	db := tsdb.New(clk)
	s, err := New(clk, srv, db, Config{
		Name: "s", Policy: Binpack{}, UseMetrics: true, Window: 40 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	epcQuery := newOracle(s, db).epcQuery
	if epcQuery.Source.Sub != nil {
		t.Fatal("per-pod query should not be nested")
	}
	found := false
	for _, c := range epcQuery.Where {
		if c.IsTime && c.Offset == 40*time.Second {
			found = true
		}
	}
	if !found {
		t.Fatalf("window not applied: %+v", epcQuery.Where)
	}
}

// TestBuiltQueriesMatchListing1 pins the AST-built default queries to the
// paper's Listing 1 text: constructing them structurally must be
// observationally identical to parsing the inner query verbatim.
func TestBuiltQueriesMatchListing1(t *testing.T) {
	cases := []struct {
		query string
		built *influxql.Query
	}{
		{`SELECT MAX(value) AS epc FROM "sgx/epc" WHERE value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename`,
			perPodPeakQuery(monitor.MeasurementEPC, "epc", DefaultWindow)},
		{`SELECT MAX(value) AS mem FROM "memory/usage" WHERE value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename`,
			perPodPeakQuery(monitor.MeasurementMemory, "mem", DefaultWindow)},
	}
	for _, tc := range cases {
		parsed, err := influxql.Parse(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parsed, tc.built) {
			t.Fatalf("built query diverges from Listing 1:\nbuilt:  %+v\nparsed: %+v", tc.built, parsed)
		}
	}
}

// TestUsageKeyedByPodAndNode reproduces the drained-node override: the
// database holds series for the same pod name on two nodes (the stale one
// sorting after the live one, which is the order that used to win under
// pod-name-only keying), and the view — the oracle's and the cache's —
// must charge each node only its own measurement.
func TestUsageKeyedByPodAndNode(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	db := tsdb.New(clk)
	for _, name := range []string{"a-live", "z-stale"} {
		if err := srv.RegisterNode(&api.Node{
			Name:        name,
			Capacity:    resource.List{resource.Memory: 64 * resource.GiB},
			Allocatable: resource.List{resource.Memory: 64 * resource.GiB},
			Ready:       true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(clk, srv, db, Config{
		Name: "s", Policy: Binpack{}, UseMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	pod := memJob("dup", resource.GiB, resource.GiB, time.Hour)
	pod.Spec.SchedulerName = "s"
	if err := srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind("dup", "a-live"); err != nil {
		t.Fatal(err)
	}
	if err := srv.MarkRunning("dup"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second) // past the window-long lag: measurements only

	// Fresh points, both inside the window: the pod's live series on
	// a-live reports 1 GiB; a stale series under the same pod name on
	// z-stale reports 32 GiB.
	live := float64(resource.GiB)
	stale := float64(32 * resource.GiB)
	db.WriteNow(monitor.MeasurementMemory, tsdb.Tags{monitor.TagPod: "dup", monitor.TagNode: "a-live"}, live)
	db.WriteNow(monitor.MeasurementMemory, tsdb.Tags{monitor.TagPod: "dup", monitor.TagNode: "z-stale"}, stale)

	view := oracleView(s, db)
	if got := view.Node("a-live").Used.Get(resource.Memory); got != int64(live) {
		t.Fatalf("a-live used = %d, want %d (its own series)", got, int64(live))
	}
	if got := view.Node("z-stale").Used.Get(resource.Memory); got != 0 {
		t.Fatalf("z-stale used = %d, want 0 (no pod runs there)", got)
	}
	// The production read path (WindowMax → cache) keys the same way.
	viewsEqual(t, freshView(s.cache), view, "cache vs oracle")
}

// TestSubSecondWindowsBuildExactOffsets: windows that used to be
// truncated (or rejected) by the string-substitution path are now carried
// exactly as structural offsets.
func TestSubSecondWindowsBuildExactOffsets(t *testing.T) {
	for _, w := range []time.Duration{1500 * time.Millisecond, 500 * time.Millisecond, 1500 * time.Microsecond} {
		clk := clock.NewSim()
		srv := apiserver.New(clk)
		db := tsdb.New(clk)
		s, err := New(clk, srv, db, Config{
			Name: "s", Policy: Binpack{}, UseMetrics: true, Window: w,
		})
		if err != nil {
			t.Fatalf("window %v: %v", w, err)
		}
		found := false
		for _, c := range newOracle(s, db).epcQuery.Where {
			if c.IsTime {
				if c.Offset != w {
					t.Fatalf("window offset = %v, want %v", c.Offset, w)
				}
				found = true
			}
		}
		if !found {
			t.Fatal("no time condition in built query")
		}
	}
}

// TestSeriesCountBoundedAfterChurn replays a churning workload: every
// finished pod's series must be garbage-collected once retention
// elapses, so the database does not grow for the lifetime of the
// cluster.
func TestSeriesCountBoundedAfterChurn(t *testing.T) {
	c := newTestCluster(t, clusterSpec{stdNodes: 1, sgxNodes: 1, useMetrics: true, enforcement: true})
	for wave := 0; wave < 3; wave++ {
		for i := 0; i < 4; i++ {
			c.submit(t, memJob(fmt.Sprintf("w%d-std-%d", wave, i), resource.GiB, resource.GiB, 20*time.Second))
			c.submit(t, epcJob(fmt.Sprintf("w%d-sgx-%d", wave, i), 500, resource.MiB, 20*time.Second))
		}
		c.clk.Advance(time.Minute)
	}
	if !c.srv.AllTerminal() {
		t.Fatal("churn jobs did not finish")
	}
	if got := c.db.SeriesCount(); got == 0 {
		t.Fatal("expected live series right after the churn")
	}
	// Default retention is 10 min and the sweep runs every minute: after
	// 12 idle minutes every series of the terminated pods must be gone.
	c.clk.Advance(12 * time.Minute)
	if got := c.db.SeriesCount(); got != 0 {
		t.Fatalf("SeriesCount = %d after retention, want 0 (series leak)", got)
	}
}

func podNames(pods []*api.Pod) []string {
	out := make([]string, 0, len(pods))
	for _, p := range pods {
		out = append(out, p.Name)
	}
	return out
}

func TestSchedulerRoutesAroundDrainedNode(t *testing.T) {
	c := newTestCluster(t, clusterSpec{sgxNodes: 2, useMetrics: true, enforcement: true})
	// Prime both nodes with one job each so the cluster is warm.
	c.submit(t, epcJob("warm-0", 1000, 3*resource.MiB, 10*time.Minute))
	c.submit(t, epcJob("warm-1", 1000, 3*resource.MiB, 10*time.Minute))
	c.clk.Advance(10 * time.Second)

	// Drain sgx-1: its running pod fails, the node goes NotReady.
	for _, kl := range c.kubelets {
		if kl.NodeName() == "sgx-1" {
			kl.Stop()
		}
	}
	// New jobs must all land on the surviving node.
	for i := 0; i < 3; i++ {
		c.submit(t, epcJob(fmt.Sprintf("after-%d", i), 500, resource.MiB, 30*time.Second))
	}
	c.clk.Advance(30 * time.Second)
	for i := 0; i < 3; i++ {
		p, err := c.srv.GetPod(fmt.Sprintf("after-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if p.Spec.NodeName != "sgx-2" {
			t.Fatalf("after-%d on %q, want sgx-2 (sgx-1 drained)", i, p.Spec.NodeName)
		}
	}
}

func TestWindowBeyondRetentionRejected(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	db := tsdb.New(clk, tsdb.WithRetention(time.Minute))
	if _, err := New(clk, srv, db, Config{
		Name: "s", Policy: Binpack{}, UseMetrics: true, Window: 2 * time.Minute,
	}); err == nil {
		t.Fatal("window beyond retention accepted: streaming and InfluxQL paths could diverge")
	}
	if _, err := New(clk, srv, db, Config{
		Name: "s", Policy: Binpack{}, UseMetrics: true, Window: time.Minute,
	}); err != nil {
		t.Fatalf("window equal to retention rejected: %v", err)
	}
}
