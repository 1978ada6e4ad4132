package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// checkRecords checks the cache's pod records against each other: every
// tracked record is reachable exactly once from c.pods and exactly once
// from its own node's list, whose links agree both ways; each node's list
// holds exactly the tracked pods charged to it; c.groups holds only
// tracked records under their own group; and every record on the free
// list is zero apart from its link and reachable from nothing else. peak
// is the most records ever tracked at once since the cache last primed:
// records are carved only when the free list is empty, so the free list
// and the tracked records together are exactly that many. Caller must
// not hold c.mu.
func checkRecords(t *testing.T, c *ClusterCache, peak int, context string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	onList := make(map[*cachedPod]int, len(c.pods))
	for name, cn := range c.nodes {
		var prev *cachedPod
		for cp := cn.pods; cp != nil; cp = cp.next {
			if cp.prev != prev {
				t.Fatalf("%s: node %s: record %q links back to %p, want %p", context, name, cp.name, cp.prev, prev)
			}
			if onList[cp]++; onList[cp] > 1 {
				t.Fatalf("%s: node %s lists record %q twice", context, name, cp.name)
			}
			if cp.node != name {
				t.Fatalf("%s: node %s lists record %q charged to %q", context, name, cp.name, cp.node)
			}
			if c.pods[cp.name] != cp {
				t.Fatalf("%s: node %s lists record %q (%+v), which c.pods does not track", context, name, cp.name, *cp)
			}
			prev = cp
		}
	}
	for name, cp := range c.pods {
		if cp.name != name {
			t.Fatalf("%s: c.pods[%q] holds the record of %q", context, name, cp.name)
		}
		if onList[cp] != 1 {
			t.Fatalf("%s: record %q is on %d node lists, want 1", context, name, onList[cp])
		}
	}
	if len(onList) != len(c.pods) {
		t.Fatalf("%s: node lists hold %d records, c.pods %d", context, len(onList), len(c.pods))
	}
	for group, members := range c.groups {
		for name, cp := range members {
			if c.pods[name] != cp || cp.group != group {
				t.Fatalf("%s: c.groups[%q][%q] is not the tracked record of a member", context, group, name)
			}
		}
	}
	free := 0
	for cp := c.free; cp != nil; cp = cp.next {
		if free++; free > peak {
			t.Fatalf("%s: free list longer than the peak of %d tracked records", context, peak)
		}
		if *cp != (cachedPod{next: cp.next}) {
			t.Fatalf("%s: free record is not zero: %+v", context, *cp)
		}
		if onList[cp] != 0 {
			t.Fatalf("%s: free record is still on a node list", context)
		}
	}
	if free+len(c.pods) != peak {
		t.Fatalf("%s: %d free and %d tracked records, want %d together (the peak tracked)", context, free, len(c.pods), peak)
	}
}

// TestCacheRecordRecycleProperty drives random churn through the API
// server into a scheduler's cache: creates, binds, runs, successes,
// failures, preemptions, evictions, gang permits held, committed,
// released and preempted as a unit, node flaps, and one resync from a
// fresh snapshot halfway. After every step the pod records must pass
// checkRecords and the cache must equal the oracle's from-scratch build.
func TestCacheRecordRecycleProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := clock.NewSim()
		srv := apiserver.New(clk, apiserver.WithAdmission(apiserver.AdmitStrict))
		nodes := []string{"n01", "n02", "n03", "n04"}
		for _, name := range nodes {
			alloc := resource.List{resource.Memory: 32 * resource.GiB, resource.EPCPages: 8000}
			if err := srv.RegisterNode(&api.Node{Name: name, Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(clk, srv, nil, Config{Name: "s", Policy: Binpack{}})
		if err != nil {
			t.Fatal(err)
		}
		c := s.cache
		groups := []string{"g0", "g1", "g2"}
		var pods []string
		pick := func() string { return pods[rng.Intn(len(pods))] }
		pickPending := func() string { // by name: PendingPods' order is unspecified
			q := srv.PendingPods("")
			if len(q) == 0 {
				return ""
			}
			slices.SortFunc(q, func(a, b *api.Pod) int { return strings.Compare(a.Name, b.Name) })
			return q[rng.Intn(len(q))].Name
		}
		const steps = 240
		peak, recycled, held := 0, false, false
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(100); {
			case r < 25 || len(pods) == 0:
				p := memPod(fmt.Sprintf("p%03d", len(pods)), int64(1+rng.Intn(2))*resource.GiB, int32(rng.Intn(3)))
				p.Spec.SchedulerName = "s"
				if rng.Intn(3) == 0 {
					p.Spec.PodGroup, p.Spec.MinMember = groups[rng.Intn(len(groups))], 2
				}
				if rng.Intn(4) == 0 {
					p.Spec.Class = api.ClassBestEffort
				}
				if rng.Intn(2) == 0 {
					p.Spec.Containers[0].Resources.Requests[resource.EPCPages] = int64(rng.Intn(1500))
				}
				pods = append(pods, p.Name)
				_ = srv.CreatePod(p)
			case r < 45:
				_ = srv.Bind(pickPending(), nodes[rng.Intn(len(nodes))])
			case r < 57:
				_ = srv.Reserve(pickPending(), nodes[rng.Intn(len(nodes))])
			case r < 62:
				_, _ = srv.CommitGroup(groups[rng.Intn(len(groups))])
			case r < 65:
				_, _ = srv.ReleaseGroup(groups[rng.Intn(len(groups))], "")
			case r < 68:
				_, _ = srv.PreemptGroup(groups[rng.Intn(len(groups))], "churn")
			case r < 74:
				_ = srv.MarkRunning(pick())
			case r < 84:
				_ = srv.MarkSucceeded(pick())
			case r < 87:
				_ = srv.MarkFailed(pick(), "churn")
			case r < 92:
				_ = srv.Preempt(pick(), "churn")
			case r < 95:
				_ = srv.Evict(pick(), "churn")
			default:
				n, err := srv.GetNode(nodes[rng.Intn(len(nodes))])
				if err != nil {
					t.Fatal(err)
				}
				n = n.Clone()
				n.Ready = !n.Ready
				_ = srv.UpdateNode(n)
			}
			if step == steps/2 {
				c.resync(srv.SnapshotNow())
				c.mu.Lock()
				peak = len(c.pods)
				c.mu.Unlock()
			}
			c.mu.Lock()
			peak = max(peak, len(c.pods))
			recycled = recycled || c.free != nil
			for _, cp := range c.pods {
				held = held || cp.reserved
			}
			c.mu.Unlock()
			context := fmt.Sprintf("seed %d step %d", seed, step)
			checkRecords(t, c, peak, context)
			viewsEqual(t, freshView(c), oracleView(s, nil), context)
		}
		if !recycled || !held {
			t.Fatalf("seed %d: recycled a record %v, charged a permit %v: the churn lost its teeth", seed, recycled, held)
		}
		s.Close()
		srv.Close()
	}
}

// TestCacheBindAndFinishAllocateNothing pins a pod's whole stay in a warm
// cache — its PodBound and then its terminal PodUpdated — at zero
// allocations: the record comes off the free list and goes back on it,
// and the node's list links through the record. Warm means the change
// journal has compacted once, so it no longer grows.
func TestCacheBindAndFinishAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	defer srv.Close()
	alloc := resource.List{resource.Memory: 16 * resource.GiB, resource.EPCPages: 4000}
	if err := srv.RegisterNode(&api.Node{Name: "n01", Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
		t.Fatal(err)
	}
	c := newClusterCache(clk, srv, nil, 0)
	defer c.Close()
	bound := memPod("p", resource.GiB, 1)
	bound.Spec.SchedulerName = "s"
	bound.Spec.NodeName = "n01"
	bound.Spec.Containers[0].Resources.Requests[resource.EPCPages] = 10
	done := *bound
	done.Status.Phase = api.PodSucceeded
	rev := c.rev
	evs := make([]apiserver.WatchEvent, 2)
	stay := func() {
		evs[0] = apiserver.WatchEvent{Type: apiserver.PodBound, Rev: rev + 1, Pod: bound}
		evs[1] = apiserver.WatchEvent{Type: apiserver.PodUpdated, Rev: rev + 2, Pod: &done}
		rev += 2
		c.ApplyAll(evs)
	}
	for c.journalBase == 0 {
		stay()
	}
	if got := testing.AllocsPerRun(100, stay); got != 0 {
		t.Fatalf("a bind and a finish allocate %v objects in a warm cache, want 0", got)
	}
	checkRecords(t, c, 1, "after the pinned stays")
}

// TestCacheRecordsRecycledConcurrent churns pods through an async-watch
// server, whose pump applies the events to the cache on its own
// goroutine, while other goroutines walk node lists (victimsBelow), look
// records up (onMetric) and sync a view. A record recycled while a reader
// still saw it would show as a victim with no name or a race; at the end
// the records must pass checkRecords and the cache must equal the
// oracle's build.
func TestCacheRecordsRecycledConcurrent(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk, apiserver.WithAsyncWatch())
	defer srv.Close()
	nodes := []string{"n01", "n02", "n03"}
	for _, name := range nodes {
		alloc := resource.List{resource.Memory: 64 * resource.GiB, resource.EPCPages: 8000}
		if err := srv.RegisterNode(&api.Node{Name: name, Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(clk, srv, nil, Config{Name: "s", Policy: Binpack{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.cache

	var stop atomic.Bool
	var wg sync.WaitGroup
	var badVictim atomic.Value
	wg.Add(3)
	go func() {
		defer wg.Done()
		var buf []victimInfo
		var groups []string
		for i := 0; !stop.Load(); i++ {
			buf, groups = c.victimsBelow(nodes[i%len(nodes)], 3, true, buf[:0], groups[:0])
			for _, v := range buf {
				if v.name == "" || v.count < 1 {
					badVictim.Store(v)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			c.onMetric("", fmt.Sprintf("p%04d", i%600), nodes[i%len(nodes)], 0, false)
		}
	}()
	go func() {
		defer wg.Done()
		v := c.NewView()
		for !stop.Load() {
			c.SyncView(v)
		}
	}()

	rng := rand.New(rand.NewSource(7))
	const jobs, live = 600, 40
	for i := 0; i < jobs; i++ {
		p := memPod(fmt.Sprintf("p%04d", i), resource.GiB, int32(rng.Intn(3)))
		p.Spec.SchedulerName = "s"
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
		if err := srv.Bind(p.Name, nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
		if i < live {
			continue
		}
		if old := fmt.Sprintf("p%04d", i-live); rng.Intn(4) == 0 {
			err = srv.Preempt(old, "churn")
		} else {
			err = srv.MarkSucceeded(old)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	srv.QuiesceWatch()
	stop.Store(true)
	wg.Wait()
	if v := badVictim.Load(); v != nil {
		t.Fatalf("victimsBelow reported %+v", v)
	}
	// Each bind but the first live ones came just before a finish, so at
	// most live+1 pods were ever tracked at once.
	checkRecords(t, c, live+1, "after the churn")
	viewsEqual(t, freshView(c), oracleView(s, nil), "after the churn")
}
