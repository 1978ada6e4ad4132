package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// injectBoundPod charges node with one live bound pod without going
// through the API server, exactly as a PodBound event would (metrics-off
// fusion: requests) — how BenchmarkMillionPod reaches 10^6 bound pods in
// setup time instead of replaying 10^6 watch events. A pod already
// tracked, or a node the cache does not know, changes nothing.
func (c *ClusterCache) injectBoundPod(name, node string, reqMem, reqEPC int64) {
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pods[name]; ok {
		return
	}
	if _, ok := c.nodes[node]; !ok {
		return
	}
	c.trackPodLocked(&cachedPod{name: name, node: node, reqMem: reqMem, reqEPC: reqEPC}, now)
}

// viewsEqual compares two ClusterViews semantically: same nodes in the
// same order with equal flags, allocatable, fused usage (absent resource
// keys count as zero) and device headroom.
func viewsEqual(t *testing.T, got, want *ClusterView, context string) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d nodes, want %d\ncache: %s\nrebuild: %s",
			context, len(got.Nodes), len(want.Nodes), viewString(got), viewString(want))
	}
	for i := range got.Nodes {
		g, w := got.Nodes[i], want.Nodes[i]
		switch {
		case g.Name != w.Name:
			t.Fatalf("%s: node[%d] = %q, want %q", context, i, g.Name, w.Name)
		case g.SGX != w.SGX:
			t.Fatalf("%s: node %s SGX = %v, want %v", context, g.Name, g.SGX, w.SGX)
		case g.Allocatable != w.Allocatable:
			t.Fatalf("%s: node %s allocatable = %v, want %v", context, g.Name, g.Allocatable, w.Allocatable)
		case g.Used != w.Used:
			t.Fatalf("%s: node %s used = %v, want %v", context, g.Name, g.Used, w.Used)
		case g.FreeDevices != w.FreeDevices:
			t.Fatalf("%s: node %s free devices = %d, want %d", context, g.Name, g.FreeDevices, w.FreeDevices)
		}
	}
}

func viewString(v *ClusterView) string {
	s := ""
	for _, n := range v.Nodes {
		s += fmt.Sprintf("[%s used=%v free=%d]", n.Name, n.Used, n.FreeDevices)
	}
	return s
}

// TestClusterCacheMatchesBuildView is the cache's guard: it drives
// randomized submit/bind/run/finish/evict/preempt/drain/metric/advance
// sequences through the API server and database and requires a fresh
// incremental view of the event-driven cache to match the oracle's
// from-scratch BuildView (InfluxQL reference path, oracle_test.go)
// exactly, at every checkpoint. Metric values are whole bytes so both
// paths' float64→int64 conversions are exact.
func TestClusterCacheMatchesBuildView(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		clk := clock.NewSim()
		srv := apiserver.New(clk)
		db := tsdb.New(clk)

		nodeNames := make([]string, 3+rng.Intn(4))
		for i := range nodeNames {
			nodeNames[i] = fmt.Sprintf("n%02d", i)
		}
		registerNode := func(name string, sgx bool) {
			alloc := resource.List{
				resource.Memory: int64(8+rng.Intn(56)) * resource.GiB,
				resource.CPU:    8000,
			}
			if sgx {
				alloc[resource.EPCPages] = int64(1000 + rng.Intn(30000))
			}
			if err := srv.RegisterNode(&api.Node{
				Name: name, Capacity: alloc, Allocatable: alloc, Ready: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Some nodes, pods and metrics exist before the scheduler does, so
		// the informer snapshot and aggregator backfill paths are primed.
		preNodes := 1 + rng.Intn(len(nodeNames))
		for i := 0; i < preNodes; i++ {
			registerNode(nodeNames[i], rng.Intn(2) == 0)
		}
		var pods []string
		makePod := func() *api.Pod {
			name := fmt.Sprintf("p%03d", len(pods))
			pods = append(pods, name)
			req := resource.List{resource.Memory: int64(rng.Intn(8)) * resource.GiB}
			if rng.Intn(2) == 0 {
				req[resource.EPCPages] = int64(rng.Intn(2000))
			}
			schedName := "s"
			if rng.Intn(5) == 0 {
				schedName = "other" // foreign pods still count toward usage
			}
			return &api.Pod{
				Name: name,
				Spec: api.PodSpec{
					SchedulerName: schedName,
					Priority:      int32(rng.Intn(3)),
					Containers: []api.Container{{
						Name:      "main",
						Resources: api.Requirements{Requests: req},
					}},
				},
			}
		}
		writeMetric := func() {
			measurement := monitor.MeasurementMemory
			if rng.Intn(2) == 0 {
				measurement = monitor.MeasurementEPC
			}
			pod := fmt.Sprintf("p%03d", rng.Intn(len(pods)+3)) // sometimes unknown
			node := nodeNames[rng.Intn(len(nodeNames))]
			if rng.Intn(8) == 0 {
				node = "ghost"
			}
			value := float64(int64(rng.Intn(6)) * resource.GiB) // zeros included
			at := clk.Now().Add(-time.Duration(rng.Intn(90)) * time.Second)
			db.Write(measurement, tsdb.Tags{monitor.TagPod: pod, monitor.TagNode: node}, value, at)
		}
		for i := 0; i < 5; i++ {
			if err := srv.CreatePod(makePod()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			writeMetric()
		}

		window := time.Duration(5+rng.Intn(56)) * time.Second
		s, err := New(clk, srv, db, Config{
			Name: "s", Policy: Binpack{}, UseMetrics: true, Window: window,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := preNodes; i < len(nodeNames); i++ {
			registerNode(nodeNames[i], rng.Intn(2) == 0)
		}

		for op := 0; op < 150; op++ {
			switch r := rng.Intn(100); {
			case r < 20:
				_ = srv.CreatePod(makePod())
			case r < 40: // bind a random queued pod by hand
				if queued := srv.PendingPods(""); len(queued) > 0 {
					p := queued[rng.Intn(len(queued))]
					_ = srv.Bind(p.Name, nodeNames[rng.Intn(len(nodeNames))])
				}
			case r < 50:
				_ = srv.MarkRunning(pods[rng.Intn(len(pods))])
			case r < 58:
				_ = srv.MarkSucceeded(pods[rng.Intn(len(pods))])
			case r < 63:
				_ = srv.MarkFailed(pods[rng.Intn(len(pods))], "chaos")
			case r < 67:
				_ = srv.Evict(pods[rng.Intn(len(pods))], "test")
			case r < 72: // preemption: a bound pod returns to the queue
				_ = srv.Preempt(pods[rng.Intn(len(pods))], "chaos")
			case r < 78: // node churn: drain, undrain, cordon, device growth
				n, err := srv.GetNode(nodeNames[rng.Intn(len(nodeNames))])
				if err != nil {
					break
				}
				n = n.Clone()
				switch rng.Intn(3) {
				case 0:
					n.Ready = !n.Ready
				case 1:
					n.Unschedulable = !n.Unschedulable
				case 2:
					if n.HasSGX() {
						n.Allocatable[resource.EPCPages] += int64(rng.Intn(500))
					}
				}
				_ = srv.UpdateNode(n)
			case r < 92:
				writeMetric()
			case r < 95:
				s.ScheduleOnce()
			default:
				clk.Advance(time.Duration(rng.Intn(15000)) * time.Millisecond)
			}
			if op%7 == 0 {
				viewsEqual(t, freshView(s.cache), oracleView(s, db),
					fmt.Sprintf("trial %d op %d", trial, op))
			}
		}
		// Let every window decay and maturity pass, then compare once more.
		clk.Advance(2 * time.Minute)
		viewsEqual(t, freshView(s.cache), oracleView(s, db), fmt.Sprintf("trial %d final", trial))
		s.Close()
	}
}

// TestCacheDropsDrainedNode drains a node mid-run and proves the cache
// drops its view and usage: a synced view loses the node immediately, and
// when the node later reports Ready again its fused usage is zero because
// the drain failed its pods.
func TestCacheDropsDrainedNode(t *testing.T) {
	c := newTestCluster(t, clusterSpec{sgxNodes: 2, useMetrics: true, enforcement: true})
	c.submit(t, epcJob("warm-0", 1000, 3*resource.MiB, 10*time.Minute))
	c.submit(t, epcJob("warm-1", 1000, 3*resource.MiB, 10*time.Minute))
	c.clk.Advance(15 * time.Second)

	cache := c.sched.cache
	before := freshView(cache)
	if n := before.Node("sgx-1"); n == nil || n.Used.Get(resource.EPCPages) == 0 {
		t.Fatalf("sgx-1 missing or idle before drain: %v", viewString(before))
	}

	for _, kl := range c.kubelets {
		if kl.NodeName() == "sgx-1" {
			kl.Stop()
		}
	}
	after := freshView(cache)
	if after.Node("sgx-1") != nil {
		t.Fatalf("drained node still in the cache's view: %v", viewString(after))
	}
	if after.Node("sgx-2") == nil {
		t.Fatal("surviving node vanished from the view")
	}
	viewsEqual(t, after, oracleView(c.sched, c.db), "post-drain")

	// Un-cordon the node: the cache must expose it again with zero usage —
	// its pods failed on the drain, so everything it was charged is gone.
	n, err := c.srv.GetNode("sgx-1")
	if err != nil {
		t.Fatal(err)
	}
	n = n.Clone()
	n.Ready = true
	if err := c.srv.UpdateNode(n); err != nil {
		t.Fatal(err)
	}
	c.clk.Advance(30 * time.Second) // drained pod's stale series decays out of the window
	back := freshView(cache)
	nv := back.Node("sgx-1")
	if nv == nil {
		t.Fatal("re-readied node missing from the view")
	}
	if nv.Used.Get(resource.Memory) != 0 || nv.Used.Get(resource.EPCPages) != 0 {
		t.Fatalf("re-readied node still charged: %v", nv.Used)
	}
	if nv.FreeDevices != nv.Allocatable.Get(resource.EPCPages) {
		t.Fatalf("re-readied node FreeDevices = %d, want %d", nv.FreeDevices, nv.Allocatable.Get(resource.EPCPages))
	}
	viewsEqual(t, back, oracleView(c.sched, c.db), "post-undrain")
}

// TestWatchEventOrderingDeterministic runs the same simulated scenario
// twice and requires bit-identical watch event sequences — the property
// the event-driven cache's reproducibility rests on.
func TestWatchEventOrderingDeterministic(t *testing.T) {
	run := func() []string {
		c := newTestCluster(t, clusterSpec{stdNodes: 2, sgxNodes: 2, useMetrics: true, enforcement: true})
		var seq []string
		unsub := c.srv.Subscribe(func(ev apiserver.WatchEvent) {
			entry := fmt.Sprintf("rev=%d type=%d", ev.Rev, ev.Type)
			if ev.Pod != nil {
				entry += fmt.Sprintf(" pod=%s node=%s phase=%s", ev.Pod.Name, ev.Pod.Spec.NodeName, ev.Pod.Status.Phase)
			}
			if ev.Node != nil {
				entry += fmt.Sprintf(" node=%s ready=%v", ev.Node.Name, ev.Node.Ready)
			}
			seq = append(seq, entry)
		})
		defer unsub()

		rng := rand.New(rand.NewSource(4242))
		for i := 0; i < 25; i++ {
			if rng.Intn(2) == 0 {
				c.submit(t, epcJob(fmt.Sprintf("job-%02d", i), int64(200+rng.Intn(4000)), resource.MiB, 30*time.Second))
			} else {
				c.submit(t, memJob(fmt.Sprintf("job-%02d", i), int64(1+rng.Intn(4))*resource.GiB, resource.GiB, 30*time.Second))
			}
			c.clk.Advance(time.Duration(rng.Intn(8)) * time.Second)
		}
		for _, kl := range c.kubelets {
			if kl.NodeName() == "sgx-1" {
				kl.Stop() // drain mid-run
			}
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
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
}

// TestViewCommitIsolated verifies a pass may mutate its view (Commit)
// without corrupting the cache's internal state or any other view: every
// NodeView, Allocatable included, is the view's own copy.
func TestViewCommitIsolated(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	db := tsdb.New(clk)
	alloc := resource.List{resource.Memory: 16 * resource.GiB, resource.EPCPages: 1000}
	if err := srv.RegisterNode(&api.Node{Name: "n1", Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
		t.Fatal(err)
	}
	s, err := New(clk, srv, db, Config{Name: "s", Policy: Binpack{}, UseMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	view := freshView(s.cache)
	view.Commit("n1", resource.List{resource.Memory: resource.GiB, resource.EPCPages: 100})
	view.Nodes[0].Allocatable[resource.Memory] = 1

	fresh := freshView(s.cache)
	n := fresh.Node("n1")
	if n.Used.Get(resource.Memory) != 0 || n.FreeDevices != 1000 {
		t.Fatalf("view mutation leaked into the cache: used=%v free=%d", n.Used, n.FreeDevices)
	}
	if n.Allocatable.Get(resource.Memory) != 16*resource.GiB {
		t.Fatal("allocatable aliased between a view and the cache")
	}
}

// TestIdlePassesDrainAggregator: a scheduler with an empty queue must
// still reclaim decayed aggregator series on its periodic passes — the
// expiry heap is only emptied by a refresh, and idle is the steady state
// between job waves.
func TestIdlePassesDrainAggregator(t *testing.T) {
	c := newTestCluster(t, clusterSpec{stdNodes: 1, sgxNodes: 1, useMetrics: true, enforcement: true})
	c.submit(t, epcJob("short", 500, resource.MiB, 10*time.Second))
	c.submit(t, memJob("short-mem", resource.GiB, resource.GiB, 10*time.Second))
	c.clk.Advance(30 * time.Second)
	if !c.srv.AllTerminal() {
		t.Fatal("jobs did not finish")
	}
	// The queue is now empty; the periodic passes keep running while the
	// finished pods' series age out of the 25 s window.
	c.clk.Advance(time.Minute)
	if got := c.sched.agg.SeriesCount(); got != 0 {
		t.Fatalf("aggregator still holds %d series after idle passes (expiry heap not drained)", got)
	}
}

// TestCachePrimesHeldPermits: a scheduler built while a gang sits below
// quorum primes its cache from a snapshot in which the members are
// unbound but hold permits. The prime must charge each permit on its
// node, as the PodPermitHeld event did for the caches that saw it; the
// oracle charges the snapshot's permits the same way.
func TestCachePrimesHeldPermits(t *testing.T) {
	tb := newGangTestbed(t, 2, resource.GiB, GangConfig{}, 1)
	tb.submit(t, memPod("solo", 64*resource.MiB, 0))
	for _, name := range []string{"g-a", "g-b"} {
		tb.submit(t, memGangPod(name, "g", 3, 100*resource.MiB, 0))
	}
	tb.fleet.RunRound()
	if n := tb.srv.ReservationCount(); n != 2 {
		t.Fatalf("permits before the late scheduler = %d, want 2", n)
	}

	late, err := New(tb.clk, tb.srv, nil, Config{Name: "late", Policy: Binpack{}})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	got := freshView(late.cache)
	viewsEqual(t, got, oracleView(late, nil), "primed with held permits")
	var used int64
	for _, n := range got.Nodes {
		used += n.Used.Get(resource.Memory)
	}
	if want := 264 * resource.MiB; used != want {
		t.Fatalf("primed view charges %d bytes, want %d (the bound pod and both permits)", used, want)
	}
}

// TestViewJournalCompaction drives the change journal past
// maxViewJournal, so its oldest half is dropped and journalBase moves.
// Views that synced before the compaction and are still close to the tip
// replay across it, their offset into the journal taken from
// journalBase: one synced after every touch, and one that last synced
// just before n05 registered, a few touches ahead of the compaction (the
// registration is n05's one journal entry, so a replay that started one
// entry late would leave n05 out). A view synced once before the first
// touch is left behind the dropped prefix and must rebuild. All three
// must then equal a fresh view.
func TestViewJournalCompaction(t *testing.T) {
	tb := newGangTestbed(t, 4, resource.GiB, GangConfig{}, 1)
	c := newClusterCache(tb.clk, tb.srv, nil, 0, false)
	defer c.Close()
	every, lagging, stale := c.NewView(), c.NewView(), c.NewView()
	for _, v := range []*ClusterView{every, lagging, stale} {
		c.SyncView(v)
	}
	pods := 0
	touch := func() { // a pod on n01
		pods++
		c.injectBoundPod(fmt.Sprintf("p%05d", pods), "n01", resource.KiB, 0)
		c.SyncView(every)
	}
	for len(c.journal) < maxViewJournal-4 {
		touch()
	}
	c.SyncView(lagging)
	n05 := resource.List{resource.Memory: resource.GiB}
	if err := tb.srv.RegisterNode(&api.Node{Name: "n05", Capacity: n05, Allocatable: n05, Ready: true}); err != nil {
		t.Fatal(err)
	}
	c.SyncView(every)
	for i := 0; i < 4; i++ {
		touch()
	}
	if c.journalBase == 0 {
		t.Fatalf("%d touches left the journal uncompacted (%d entries)", pods, len(c.journal))
	}
	c.SyncView(lagging)
	c.SyncView(stale)
	want := freshView(c)
	viewsEqual(t, every, want, "view synced at every touch")
	viewsEqual(t, lagging, want, "view synced before n05 registered")
	viewsEqual(t, stale, want, "view synced before the first touch")
}
