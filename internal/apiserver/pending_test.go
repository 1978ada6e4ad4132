package apiserver

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
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

// TestPendingQueuePriorityThenFCFS: the queue drains higher tiers first
// and first-come first-served within a tier, regardless of interleaved
// submission order.
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
	for _, s := range submissions {
		if err := srv.CreatePod(prioPod(s.name, s.prio)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"high-1", "high-2", "mid-1", "mid-2", "low-1", "low-2", "low-3"}

	var got []string
	srv.VisitPending("", func(p *api.Pod) bool {
		got = append(got, p.Name)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("VisitPending order = %v, want %v", got, want)
	}

	got = got[:0]
	for _, p := range srv.PendingPods("s") {
		got = append(got, p.Name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("PendingPods order = %v, want %v", got, want)
	}

	snap, unsub := srv.ListAndWatchBatch(func([]WatchEvent) {}, nil)
	defer unsub()
	if fmt.Sprint(snap.Pending) != fmt.Sprint(want) {
		t.Fatalf("snapshot Pending order = %v, want %v", snap.Pending, want)
	}
}

// TestPendingQueueRandomizedAgainstReference churns random
// submit/remove/visit traffic through the pending index and checks its
// order and counts against a straightforward sort-based model.
func TestPendingQueueRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := newPendingIndex()
	type entry struct {
		name string
		prio int32
		rev  int64
	}
	var model []entry
	rev := int64(0)
	for op := 0; op < 5000; op++ {
		switch {
		case rng.Intn(3) > 0 || len(model) == 0:
			rev++
			name := fmt.Sprintf("p%05d", rev)
			prio := int32(rng.Intn(5) - 2)
			x.add(prioPod(name, prio), rev)
			model = append(model, entry{name: name, prio: prio, rev: rev})
		default:
			i := rng.Intn(len(model))
			x.remove(model[i].name)
			model = append(model[:i], model[i+1:]...)
		}
		if op%50 != 0 {
			continue
		}
		sorted := append([]entry(nil), model...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].prio != sorted[j].prio {
				return sorted[i].prio > sorted[j].prio
			}
			return sorted[i].rev < sorted[j].rev
		})
		got := x.order("")
		if len(got) != len(sorted) || len(x.pods) != len(sorted) {
			t.Fatalf("op %d: index orders %d (holds %d), model has %d", op, len(got), len(x.pods), len(sorted))
		}
		prios := map[int32]int{}
		for i := range got {
			if got[i].name != sorted[i].name {
				t.Fatalf("op %d: position %d = %s, model %s", op, i, got[i].name, sorted[i].name)
			}
			prios[sorted[i].prio]++
		}
		if fmt.Sprint(x.prios) != fmt.Sprint(prios) {
			t.Fatalf("op %d: priority counts %v, model %v", op, x.prios, prios)
		}
		if n := x.classCounts("s")[api.ClassUnspecified]; n != len(sorted) {
			t.Fatalf("op %d: class count %d, model %d", op, n, len(sorted))
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
	unsub := srv.Subscribe(func(ev WatchEvent) { events = append(events, ev) })
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
	// Re-queued at the tail of its tier: peer (never scheduled) first.
	var order []string
	srv.VisitPending("", func(p *api.Pod) bool {
		order = append(order, p.Name)
		return true
	})
	if fmt.Sprint(order) != "[peer victim]" {
		t.Fatalf("requeue order = %v, want [peer victim]", order)
	}
	last := events[len(events)-1]
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
// the capped visit returns exactly the queue head in order, and that the
// callback can stop it early.
func TestVisitPendingNWindowsDeepQueue(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	const depth = 100_000
	for i := 0; i < depth; i++ {
		// Priorities cycle so the head interleaves tiers; within a tier the
		// order is submission order.
		if err := srv.CreatePod(prioPod(fmt.Sprintf("pod-%06d", i), int32(i%3))); err != nil {
			t.Fatal(err)
		}
	}

	var full []string
	srv.VisitPending("s", func(p *api.Pod) bool {
		full = append(full, p.Name)
		return true
	})
	if len(full) != depth {
		t.Fatalf("full visit saw %d pods, want %d", len(full), depth)
	}

	const window = 100
	var head []string
	srv.VisitPendingN("s", window, func(p *api.Pod) bool {
		head = append(head, p.Name)
		return true
	})
	if len(head) != window {
		t.Fatalf("windowed visit saw %d pods, want %d", len(head), window)
	}
	for i := range head {
		if head[i] != full[i] {
			t.Fatalf("windowed visit[%d] = %s, want %s (order not preserved)", i, head[i], full[i])
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
