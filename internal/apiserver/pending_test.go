package apiserver

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

func prioPod(name string, prio int32) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			SchedulerName: "s",
			Priority:      prio,
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.MiB}},
			}},
		},
	}
}

// queueRevs is each pending pod's queue rev, as a snapshot lists it.
func queueRevs(s *Server) map[string]int64 {
	out := map[string]int64{}
	for _, q := range s.SnapshotNow().Pending {
		out[q.Pod] = q.Rev
	}
	return out
}

// visited is the names a VisitPendingN of the named scheduler hands fn,
// sorted: the server's visit order is unspecified.
func visited(s *Server, sched string, limit int) []string {
	var out []string
	s.VisitPendingN(sched, limit, func(p *api.Pod) bool {
		out = append(out, p.Name)
		return true
	})
	slices.Sort(out)
	return out
}

// TestPendingQueuePriorityThenFCFS: whatever the interleaving of tiers,
// every submitted pod is pending at the rev of its PodCreated — what a
// scheduler orders its queue by within a tier (internal/core's
// TestCacheQueueOrdersServerScenarios asserts that order).
func TestPendingQueuePriorityThenFCFS(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	submissions := []struct {
		name string
		prio int32
	}{
		{"low-1", 0}, {"high-1", 5}, {"low-2", 0}, {"mid-1", 3},
		{"high-2", 5}, {"mid-2", 3}, {"low-3", 0},
	}
	want := map[string]int64{}
	for i, s := range submissions {
		if err := srv.CreatePod(prioPod(s.name, s.prio)); err != nil {
			t.Fatal(err)
		}
		want[s.name] = int64(i + 1)
	}
	names := slices.Sorted(maps.Keys(want))
	if got := visited(srv, "", 0); !slices.Equal(got, names) {
		t.Fatalf("VisitPending visited %v, want %v", got, names)
	}
	var got []string
	for _, p := range srv.PendingPods("s") {
		got = append(got, p.Name)
	}
	if slices.Sort(got); !slices.Equal(got, names) {
		t.Fatalf("PendingPods = %v, want %v", got, names)
	}
	if got := queueRevs(srv); !maps.Equal(got, want) {
		t.Fatalf("snapshot queue revs = %v, want %v", got, want)
	}
}

// TestPendingQueueRandomizedAgainstReference churns random
// submit/remove traffic through the pending index and checks each
// entry's queue rev and priority, and the counts, against a plain map.
func TestPendingQueueRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := newPendingIndex()
	type entry struct {
		prio int32
		rev  int64
	}
	model := map[string]entry{}
	var names []string // model's keys, for picking one to remove
	rev := int64(0)
	for op := 0; op < 5000; op++ {
		switch {
		case rng.Intn(3) > 0 || len(names) == 0:
			rev++
			name := fmt.Sprintf("p%05d", rev)
			prio := int32(rng.Intn(5) - 2)
			x.add(prioPod(name, prio), rev)
			model[name] = entry{prio, rev}
			names = append(names, name)
		default:
			i := rng.Intn(len(names))
			x.remove(names[i])
			delete(model, names[i])
			names = append(names[:i], names[i+1:]...)
		}
		if op%50 != 0 {
			continue
		}
		if len(x.pods) != len(model) {
			t.Fatalf("op %d: index holds %d, model has %d", op, len(x.pods), len(model))
		}
		prios := map[int32]int{}
		for name, want := range model {
			e, ok := x.pods[name]
			if !ok || e.prio != want.prio || e.rev != want.rev {
				t.Fatalf("op %d: %s indexed %+v (present %v), model %+v", op, name, e, ok, want)
			}
			prios[want.prio]++
		}
		if !maps.Equal(x.prios, prios) {
			t.Fatalf("op %d: priority counts %v, model %v", op, x.prios, prios)
		}
		if n := x.classCounts("s")[api.ClassUnspecified]; n != len(model) {
			t.Fatalf("op %d: class count %d, model %d", op, n, len(model))
		}
	}
}

// TestPreemptRequeuesBoundPod: preemption clears the binding, resets the
// scheduling timestamps, re-queues at the tail of the pod's tier and
// emits a PodUpdated event.
func TestPreemptRequeuesBoundPod(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	node := &api.Node{
		Name:        "n1",
		Capacity:    resource.List{resource.Memory: resource.GiB},
		Allocatable: resource.List{resource.Memory: resource.GiB},
		Ready:       true,
	}
	if err := srv.RegisterNode(node); err != nil {
		t.Fatal(err)
	}
	var events []WatchEvent
	unsub := subscribeEach(srv, func(ev WatchEvent) { events = append(events, ev) })
	defer unsub()

	for _, name := range []string{"victim", "peer"} {
		if err := srv.CreatePod(prioPod(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Bind("victim", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := srv.MarkRunning("victim"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1)

	if err := srv.Preempt("victim", "test"); err != nil {
		t.Fatal(err)
	}
	p, _ := srv.GetPod("victim")
	if p.Status.Phase != api.PodPending || p.Spec.NodeName != "" {
		t.Fatalf("preempted pod = %s on %q, want Pending unbound", p.Status.Phase, p.Spec.NodeName)
	}
	if !p.Status.ScheduledAt.IsZero() || !p.Status.StartedAt.IsZero() {
		t.Fatalf("scheduling timestamps not reset: %+v", p.Status)
	}
	if p.Status.Reason != "Preempted: test" {
		t.Fatalf("reason = %q", p.Status.Reason)
	}
	// Re-queued at the rev of its PodUpdated, behind peer (never
	// scheduled) in its tier.
	last := events[len(events)-1]
	if got, want := queueRevs(srv), map[string]int64{"peer": 3, "victim": last.Rev}; !maps.Equal(got, want) {
		t.Fatalf("queue revs after the requeue = %v, want %v", got, want)
	}
	if last.Type != PodUpdated || last.Pod.Name != "victim" || last.Pod.Spec.NodeName != "" {
		t.Fatalf("last event = %+v, want PodUpdated for unbound victim", last)
	}

	// The victim is schedulable again.
	if err := srv.Bind("victim", "n1"); err != nil {
		t.Fatalf("rebind after preemption: %v", err)
	}
}

// TestPreemptRejectsUnboundAndTerminalPods: only bound, live pods can be
// preempted.
func TestPreemptRejectsUnboundAndTerminalPods(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	if err := srv.CreatePod(prioPod("queued", 0)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Preempt("queued", "x"); !errors.Is(err, ErrConflict) {
		t.Fatalf("preempting unbound pod: err = %v, want ErrConflict", err)
	}
	if err := srv.Preempt("ghost", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("preempting unknown pod: err = %v, want ErrNotFound", err)
	}
	if err := srv.MarkFailed("queued", "dead"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Preempt("queued", "x"); !errors.Is(err, ErrConflict) {
		t.Fatalf("preempting terminal pod: err = %v, want ErrConflict", err)
	}
}

// TestVisitPendingNWindowsDeepQueue fills the queue 100k deep and proves
// the full visit sees every pod once, the capped visit exactly the window
// of distinct pending pods, and that the callback can stop it early; every
// pod is pending at the rev of its PodCreated.
func TestVisitPendingNWindowsDeepQueue(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	const depth = 100_000
	all := make([]string, depth)
	for i := range depth {
		// Priorities cycle so the tiers interleave.
		all[i] = fmt.Sprintf("pod-%06d", i)
		if err := srv.CreatePod(prioPod(all[i], int32(i%3))); err != nil {
			t.Fatal(err)
		}
	}
	if got := visited(srv, "s", 0); !slices.Equal(got, all) {
		t.Fatalf("full visit saw %d pods, want the %d submitted", len(got), depth)
	}
	revs := queueRevs(srv)
	for i, name := range all {
		if revs[name] != int64(i+1) {
			t.Fatalf("%s queued at %d, want %d", name, revs[name], i+1)
		}
	}

	const window = 100
	head := visited(srv, "s", window)
	if distinct := len(slices.Compact(slices.Clone(head))); len(head) != window || distinct != window {
		t.Fatalf("windowed visit saw %d pods (%d distinct), want %d", len(head), distinct, window)
	}
	for _, name := range head {
		if _, ok := revs[name]; !ok {
			t.Fatalf("windowed visit saw %s, not pending", name)
		}
	}

	// Early stop from the callback still works under a window.
	var got []string
	srv.VisitPendingN("s", window, func(p *api.Pod) bool {
		got = append(got, p.Name)
		return len(got) < 7
	})
	if len(got) != 7 {
		t.Fatalf("early-stopped visit saw %d pods, want 7", len(got))
	}
}

// TestPendingPushIntoEmptiedQueueAllocatesNothing: a pod arriving while
// nothing is pending — the common case of the paper's replay — and its
// bind, which empties the index again, allocate nothing once the index's
// maps have grown: the class count is kept at zero, and the priority
// count is re-made in place.
func TestPendingPushIntoEmptiedQueueAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	x := newPendingIndex()
	var pods [4]*api.Pod
	for i, name := range [...]string{"a", "b", "c", "d"} {
		pods[i] = prioPod(name, 3)
		pods[i].Spec.Class = api.ClassBatch
	}
	i := 0
	cycle := func() {
		p := pods[i%len(pods)]
		i++
		x.add(p, int64(i))
		x.remove(p.Name)
	}
	for range 16 {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("a push into an emptied index allocates %v times, want 0", got)
	}
	if len(x.pods) != 0 || len(x.prios) != 0 || len(x.classCounts("")) != 0 || len(x.classes) != 1 {
		t.Fatalf("index after the cycles: %d pending, prios %v, classes %v", len(x.pods), x.prios, x.classCounts(""))
	}
}
