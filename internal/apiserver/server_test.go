package apiserver

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// subscribeEach subscribes fn to the whole stream one event at a time.
func subscribeEach(s *Server, fn func(WatchEvent)) (unsubscribe func()) {
	return s.SubscribeBatch(func(evs []WatchEvent) {
		for _, ev := range evs {
			fn(ev)
		}
	}, nil)
}

func testNode(name string, sgx bool) *api.Node {
	alloc := resource.List{resource.Memory: 64 * resource.GiB, resource.CPU: 8000}
	if sgx {
		alloc[resource.EPCPages] = 23936
	}
	return &api.Node{Name: name, Capacity: alloc, Allocatable: alloc, Ready: true}
}

func testPod(name string) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			SchedulerName: "sgx-binpack",
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.GiB}},
				Workload:  api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: time.Minute},
			}},
		},
	}
}

func TestNodeRegistry(t *testing.T) {
	s := New(clock.NewSim())
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterNode(testNode("n1", false)); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate register err = %v", err)
	}
	if _, err := s.GetNode("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing node err = %v", err)
	}
	n, err := s.GetNode("n1")
	if err != nil || n.Name != "n1" {
		t.Fatalf("GetNode = %v, %v", n, err)
	}
	// An update stores a new version: the node handed out before it never
	// shows it, and GetNode returns the version the update published.
	edit := n.Clone()
	edit.Allocatable[resource.Memory] = 1
	var published *api.Node
	defer subscribeEach(s, func(ev WatchEvent) { published = ev.Node })()
	if err := s.UpdateNode(edit); err != nil {
		t.Fatal(err)
	}
	if n.Allocatable[resource.Memory] != 64*resource.GiB {
		t.Fatal("an update showed through a node GetNode handed out before it")
	}
	n2, _ := s.GetNode("n1")
	if n2 != published || n2 == edit || n2.Allocatable[resource.Memory] != 1 {
		t.Fatalf("GetNode after the update = %+v, want the version its event carried", n2)
	}
}

func TestListNodesSorted(t *testing.T) {
	s := New(clock.NewSim())
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := s.RegisterNode(testNode(name, false)); err != nil {
			t.Fatal(err)
		}
	}
	nodes := s.ListNodes()
	if len(nodes) != 3 || nodes[0].Name != "alpha" || nodes[1].Name != "mid" || nodes[2].Name != "zeta" {
		t.Fatalf("ListNodes order wrong: %v", nodes)
	}
}

func TestUpdateNode(t *testing.T) {
	s := New(clock.NewSim())
	if err := s.UpdateNode(testNode("n1", false)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing err = %v", err)
	}
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	upd := testNode("n1", true)
	if err := s.UpdateNode(upd); err != nil {
		t.Fatal(err)
	}
	n, _ := s.GetNode("n1")
	if !n.HasSGX() {
		t.Fatal("update did not persist EPC allocatable")
	}
}

func TestCreatePodQueuesFCFS(t *testing.T) {
	clk := clock.NewSim()
	s := New(clk)
	want := map[string]int64{}
	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		name := fmt.Sprintf("pod-%d", i)
		if err := s.CreatePod(testPod(name)); err != nil {
			t.Fatal(err)
		}
		want[name] = int64(i + 1)
	}
	if err := s.CreatePod(testPod("pod-0")); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate pod err = %v", err)
	}
	// Each pod is queued at the rev of its PodCreated, what FCFS orders
	// by (internal/core's TestCacheQueueOrdersServerScenarios).
	if got := queueRevs(s); !maps.Equal(got, want) {
		t.Fatalf("queue revs = %v, want %v", got, want)
	}
	pending := s.PendingPods("sgx-binpack")
	if len(pending) != 5 {
		t.Fatalf("pending = %d, want 5", len(pending))
	}
	for _, p := range pending {
		if p.Status.Phase != api.PodPending {
			t.Fatalf("phase = %s", p.Status.Phase)
		}
		if p.Status.SubmittedAt.IsZero() {
			t.Fatal("SubmittedAt not stamped")
		}
		if p.UID == 0 {
			t.Fatal("UID not assigned")
		}
	}
	// Scheduler filtering.
	if got := s.PendingPods("other"); len(got) != 0 {
		t.Fatalf("foreign scheduler sees %d pods", len(got))
	}
	if got := s.PendingPods(""); len(got) != 5 {
		t.Fatalf("wildcard scheduler sees %d pods", len(got))
	}
}

func TestBindLifecycle(t *testing.T) {
	clk := clock.NewSim()
	s := New(clk)
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePod(testPod("p1")); err != nil {
		t.Fatal(err)
	}

	if err := s.Bind("ghost", "n1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bind missing pod err = %v", err)
	}
	if err := s.Bind("p1", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bind missing node err = %v", err)
	}

	clk.Advance(10 * time.Second)
	if err := s.Bind("p1", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("p1", "n1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("double bind err = %v", err)
	}
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("pending after bind = %d", got)
	}

	clk.Advance(5 * time.Second)
	if err := s.MarkRunning("p1"); err != nil {
		t.Fatal(err)
	}
	p, _ := s.GetPod("p1")
	w, ok := p.WaitingTime()
	if !ok || w != 15*time.Second {
		t.Fatalf("WaitingTime = %v, %v; want 15s", w, ok)
	}

	clk.Advance(time.Minute)
	if err := s.MarkSucceeded("p1"); err != nil {
		t.Fatal(err)
	}
	p, _ = s.GetPod("p1")
	tt, _ := p.TurnaroundTime()
	if tt != 75*time.Second {
		t.Fatalf("Turnaround = %v, want 75s", tt)
	}
	if err := s.MarkSucceeded("p1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("double terminal err = %v", err)
	}
	if !s.AllTerminal() {
		t.Fatal("AllTerminal = false")
	}
}

func TestMarkRunningRequiresBinding(t *testing.T) {
	s := New(clock.NewSim())
	if err := s.CreatePod(testPod("p1")); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("p1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("running unbound pod err = %v", err)
	}
}

func TestFailBeforeBindingLeavesQueue(t *testing.T) {
	s := New(clock.NewSim())
	if err := s.CreatePod(testPod("p1")); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkFailed("p1", "admission denied"); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("failed pod still pending: %d", got)
	}
	p, _ := s.GetPod("p1")
	if p.Status.Phase != api.PodFailed || p.Status.Reason != "admission denied" {
		t.Fatalf("status = %+v", p.Status)
	}
}

func TestWatchNotifications(t *testing.T) {
	s := New(clock.NewSim())
	var got []WatchEventType
	unsub := subscribeEach(s, func(ev WatchEvent) { got = append(got, ev.Type) })
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePod(testPod("p1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("p1", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("p1"); err != nil {
		t.Fatal(err)
	}
	want := []WatchEventType{NodeRegistered, PodCreated, PodBound, PodUpdated}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
	unsub()
	if err := s.MarkSucceeded("p1"); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatal("unsubscribed watcher still notified")
	}
}

// TestEventsLog: the watch stream is the server's only record of a
// commit. It names each object in commit order, and a refused bind
// delivers nothing and moves no rev.
func TestEventsLog(t *testing.T) {
	s := New(clock.NewSim())
	var got []string
	var revs []int64
	defer subscribeEach(s, func(ev WatchEvent) {
		var name string
		if ev.Pod != nil {
			name = "pod/" + ev.Pod.Name
		} else {
			name = "node/" + ev.Node.Name
		}
		got = append(got, fmt.Sprint(name, " ", ev.Type))
		revs = append(revs, ev.Rev)
	})()
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePod(testPod("p1")); err != nil {
		t.Fatal(err)
	}
	rev := s.SnapshotNow().Rev
	if err := s.Bind("p1", "nowhere"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bind to an unknown node err = %v, want ErrNotFound", err)
	}
	want := []string{
		fmt.Sprint("node/n1 ", NodeRegistered),
		fmt.Sprint("pod/p1 ", PodCreated),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(revs) != "[1 2]" {
		t.Fatalf("stream = %q at revs %v, want %q at [1 2]", got, revs, want)
	}
	if after := s.SnapshotNow().Rev; after != rev {
		t.Fatalf("refused bind moved the rev from %d to %d", rev, after)
	}
	if st := s.BindStats(); st.Attempts != 1 || st.RejectedNodeState != 1 {
		t.Fatalf("BindStats = %+v, want 1 attempt, 1 node-state rejection", st)
	}
}

func TestListPodsFilter(t *testing.T) {
	s := New(clock.NewSim())
	for i := 0; i < 4; i++ {
		p := testPod(fmt.Sprintf("p%d", i))
		if i%2 == 0 {
			p.Spec.Containers[0].Resources.Requests[resource.EPCPages] = 10
		}
		if err := s.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	sgxPods := s.ListPods(func(p *api.Pod) bool { return p.IsSGX() })
	if len(sgxPods) != 2 {
		t.Fatalf("sgx pods = %d, want 2", len(sgxPods))
	}
	all := s.ListPods(nil)
	if len(all) != 4 {
		t.Fatalf("all pods = %d, want 4", len(all))
	}
}

// TestConcurrentAccess exercises the server's locking under parallel
// creates, binds and reads (meaningful under -race).
func TestConcurrentAccess(t *testing.T) {
	clk := clock.NewSim()
	s := New(clk)
	if err := s.RegisterNode(testNode("n1", true)); err != nil {
		t.Fatal(err)
	}
	unsub := subscribeEach(s, func(WatchEvent) {})
	defer unsub()

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("pod-%d-%d", w, i)
				if err := s.CreatePod(testPod(name)); err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				if err := s.Bind(name, "n1"); err != nil {
					t.Errorf("bind %s: %v", name, err)
					return
				}
				if err := s.MarkRunning(name); err != nil {
					t.Errorf("run %s: %v", name, err)
					return
				}
				if err := s.MarkSucceeded(name); err != nil {
					t.Errorf("finish %s: %v", name, err)
					return
				}
				s.ListNodes()
				s.PendingPods("")
			}
		}()
	}
	wg.Wait()
	if got := len(s.ListPods(nil)); got != workers*perWorker {
		t.Fatalf("pods = %d, want %d", got, workers*perWorker)
	}
	if !s.AllTerminal() {
		t.Fatal("not all pods terminal")
	}
}

func TestVisitPendingFCFSOrder(t *testing.T) {
	s := New(clock.NewSim())
	for i := 0; i < 5; i++ {
		p := testPod(fmt.Sprintf("pod-%d", i))
		if i%2 == 1 {
			p.Spec.SchedulerName = "other"
		}
		if err := s.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := visited(s, "sgx-binpack", 0), []string{"pod-0", "pod-2", "pod-4"}; !slices.Equal(got, want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	if got, want := queueRevs(s), map[string]int64{"pod-0": 1, "pod-1": 2, "pod-2": 3, "pod-3": 4, "pod-4": 5}; !maps.Equal(got, want) {
		t.Fatalf("queue revs = %v, want %v", got, want)
	}

	// Early stop.
	visits := 0
	s.VisitPending("", func(*api.Pod) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("visits after stop = %d, want 1", visits)
	}
}

func TestVisitPendingSkipsBoundPods(t *testing.T) {
	s := New(clock.NewSim())
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePod(testPod("p1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("p1", "n1"); err != nil {
		t.Fatal(err)
	}
	s.VisitPending("", func(p *api.Pod) bool {
		t.Fatalf("bound pod %s still visited as pending", p.Name)
		return false
	})
}

func TestVisitPodsSeesLiveState(t *testing.T) {
	s := New(clock.NewSim())
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.CreatePod(testPod(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Bind("p0", "n1"); err != nil {
		t.Fatal(err)
	}
	bound := 0
	s.VisitPods(func(p *api.Pod) bool {
		if p.Spec.NodeName != "" {
			bound++
		}
		return true
	})
	if bound != 1 {
		t.Fatalf("bound pods seen = %d, want 1", bound)
	}
}

// TestListAndWatchHandshake: the snapshot must reflect everything that
// happened before it, carry the matching resource version, and events
// delivered afterwards must all be newer than it.
func TestListAndWatchHandshake(t *testing.T) {
	clk := clock.NewSim()
	s := New(clk)
	if err := s.RegisterNode(testNode("n1", true)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.CreatePod(testPod(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Bind("p0", "n1"); err != nil {
		t.Fatal(err)
	}

	var events []WatchEvent
	snap, unsub := s.ListAndWatchBatch(func(evs []WatchEvent) { events = append(events, evs...) }, nil)
	defer unsub()

	if snap.Rev != 5 { // 1 node + 3 creates + 1 bind
		t.Fatalf("snapshot rev = %d, want 5", snap.Rev)
	}
	if len(snap.Nodes) != 1 || snap.Nodes[0].Name != "n1" {
		t.Fatalf("snapshot nodes = %v", snap.Nodes)
	}
	if len(snap.Pods) != 3 {
		t.Fatalf("snapshot pods = %d, want 3", len(snap.Pods))
	}
	if snap.Pods[0].Spec.NodeName != "n1" {
		t.Fatal("snapshot missed the bind")
	}
	if got := snap.Pending; len(got) != 2 || !slices.Contains(got, Queued{"p1", 3}) || !slices.Contains(got, Queued{"p2", 4}) {
		t.Fatalf("snapshot pending = %v, want p1 at rev 3 and p2 at rev 4", got)
	}
	if len(events) != 0 {
		t.Fatalf("events before any mutation: %v", events)
	}

	if err := s.MarkRunning("p0"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != PodUpdated || events[0].Rev != snap.Rev+1 {
		t.Fatalf("post-handshake events = %+v", events)
	}
	// The snapshot holds the stored versions: a later commit never shows
	// through them, and an unchanged object is the pointer GetPod returns.
	if p := snap.Pods[0]; p.Status.Phase != api.PodPending || !p.Status.StartedAt.IsZero() {
		t.Fatalf("a later transition shows through the snapshot's p0: %+v", p.Status)
	}
	if got, _ := s.GetPod("p0"); got != events[0].Pod || got == snap.Pods[0] {
		t.Fatal("GetPod does not return the version MarkRunning published")
	}
	if got, _ := s.GetPod("p1"); got != snap.Pods[1] {
		t.Fatal("snapshot copied an unchanged pod")
	}
	if n, _ := s.GetNode("n1"); n != snap.Nodes[0] {
		t.Fatal("snapshot copied an unchanged node")
	}
}

// TestEventRevisionsMonotonic: every event carries a strictly increasing
// resource version.
func TestEventRevisionsMonotonic(t *testing.T) {
	s := New(clock.NewSim())
	var revs []int64
	unsub := subscribeEach(s, func(ev WatchEvent) { revs = append(revs, ev.Rev) })
	defer unsub()
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.CreatePod(testPod(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Bind(fmt.Sprintf("p%d", i), "n1"); err != nil {
			t.Fatal(err)
		}
	}
	if len(revs) != 7 {
		t.Fatalf("revs = %v, want 7 events", revs)
	}
	for i, r := range revs {
		if r != int64(i+1) {
			t.Fatalf("revs = %v, want 1..7", revs)
		}
	}
}

// TestNotifyDeliversInRegistrationOrder: delivery follows registration
// order, stays stable across unsubscribes, and needs no per-event sort.
func TestNotifyDeliversInRegistrationOrder(t *testing.T) {
	s := New(clock.NewSim())
	var order []string
	sub := func(tag string) func() {
		return subscribeEach(s, func(WatchEvent) { order = append(order, tag) })
	}
	unsubA := sub("a")
	unsubB := sub("b")
	defer sub("c")()
	defer unsubA()

	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("delivery order = %v", order)
	}
	unsubB()
	unsubB() // double-unsubscribe is a no-op
	order = nil
	if err := s.CreatePod(testPod("p1")); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a c]" {
		t.Fatalf("delivery order after unsubscribe = %v", order)
	}
}

// TestPendingQueueIndexAndCompaction: the pending pods, their queue revs
// and their count must survive arbitrary interleavings of creates, binds
// and failures.
func TestPendingQueueIndexAndCompaction(t *testing.T) {
	clk := clock.NewSim()
	s := New(clk)
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	created := map[string]int64{}
	defer subscribeEach(s, func(ev WatchEvent) {
		if ev.Type == PodCreated {
			created[ev.Pod.Name] = ev.Rev
		}
	})()
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.CreatePod(testPod(fmt.Sprintf("pod-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Drain from the front (FCFS order, as the scheduler binds), forcing
	// several compactions, with fresh arrivals interleaved.
	for i := 0; i < n; i += 2 {
		if err := s.Bind(fmt.Sprintf("pod-%03d", i), "n1"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n/2; i += 2 {
		if err := s.MarkFailed(fmt.Sprintf("pod-%03d", i), "chaos"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := s.CreatePod(testPod(fmt.Sprintf("late-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	wantCount := n/2 - n/4 + 5
	if got := s.PendingCount(); got != wantCount {
		t.Fatalf("PendingCount = %d, want %d", got, wantCount)
	}
	want := map[string]int64{}
	for i := n/2 + 1; i < n; i += 2 {
		name := fmt.Sprintf("pod-%03d", i)
		want[name] = created[name]
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("late-%d", i)
		want[name] = created[name]
	}
	if got := visited(s, "", 0); !slices.Equal(got, slices.Sorted(maps.Keys(want))) {
		t.Fatalf("pending = %v\nwant %v", got, slices.Sorted(maps.Keys(want)))
	}
	if got := queueRevs(s); !maps.Equal(got, want) {
		t.Fatalf("queue revs = %v\nwant %v", got, want)
	}
	if listed := s.PendingPods(""); len(listed) != len(want) {
		t.Fatalf("PendingPods diverged from VisitPending: %d items", len(listed))
	}
}

// TestConcurrentMutatorsDeliverInRevOrder: with parallel mutators on
// several nodes, the whole stream is exactly the revs 1..n in order — the
// broker draws each rev as it appends the event, so none is skipped or
// reordered — and each node's SubscribeNode watcher is sent exactly that
// stream's events of its node, in the same increasing order: the informer
// contract a cache's or a kubelet's rev gate depends on.
func TestConcurrentMutatorsDeliverInRevOrder(t *testing.T) {
	nodes := []string{"n0", "n1", "n2", "n3"}
	const (
		workers   = 8
		perWorker = 40
	)
	n := len(nodes) + workers*perWorker*3
	clk := clock.NewSim()
	s := New(clk)
	var mu sync.Mutex
	var stream []WatchEvent
	defer subscribeEach(s, func(ev WatchEvent) {
		mu.Lock()
		stream = append(stream, ev)
		mu.Unlock()
	})()
	perNode := make([][]int64, len(nodes))
	for i, node := range nodes {
		defer s.SubscribeNode(node, func(evs []WatchEvent) {
			mu.Lock()
			for _, ev := range evs {
				perNode[i] = append(perNode[i], ev.Rev)
			}
			mu.Unlock()
		}, nil)()
		if err := s.RegisterNode(testNode(node, true)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := nodes[w%len(nodes)]
			for i := range perWorker {
				name := fmt.Sprintf("ord-%d-%d", w, i)
				if err := s.CreatePod(testPod(name)); err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				if err := s.Bind(name, node); err != nil {
					t.Errorf("bind %s: %v", name, err)
					return
				}
				if err := s.MarkSucceeded(name); err != nil {
					t.Errorf("finish %s: %v", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(stream) != n {
		t.Fatalf("events = %d, want %d", len(stream), n)
	}
	want := make([][]int64, len(nodes))
	for i, ev := range stream {
		if ev.Rev != int64(i+1) {
			t.Fatalf("event %d has rev %d: the stream is not exactly revs 1..%d in order", i, ev.Rev, n)
		}
		on := ""
		switch {
		case ev.Node != nil:
			on = ev.Node.Name
		case ev.Pod != nil:
			on = ev.Pod.Spec.NodeName
		}
		if k := slices.Index(nodes, on); k >= 0 {
			want[k] = append(want[k], ev.Rev)
		}
	}
	for k, node := range nodes {
		if !slices.Equal(perNode[k], want[k]) {
			t.Fatalf("node %s's watcher was sent %d revs, want its %d events of the stream in order:\ngot  %v\nwant %v",
				node, len(perNode[k]), len(want[k]), perNode[k], want[k])
		}
	}
}
