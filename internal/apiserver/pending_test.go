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
// submit/remove/visit traffic through the bucketed queue and checks it
// against a straightforward sort-based model.
func TestPendingQueueRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := newPendingQueue()
	type entry struct {
		name string
		prio int32
		seq  int
	}
	var model []entry
	seq := 0
	for op := 0; op < 5000; op++ {
		switch {
		case rng.Intn(3) > 0 || len(model) == 0:
			name := fmt.Sprintf("p%05d", seq)
			prio := int32(rng.Intn(5) - 2)
			q.Push(name, prio, "", "")
			model = append(model, entry{name: name, prio: prio, seq: seq})
			seq++
		default:
			i := rng.Intn(len(model))
			q.Remove(model[i].name)
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
			return sorted[i].seq < sorted[j].seq
		})
		got := q.Snapshot()
		if len(got) != len(sorted) || q.Len() != len(sorted) {
			t.Fatalf("op %d: queue has %d (Len %d), model has %d", op, len(got), q.Len(), len(sorted))
		}
		for i := range got {
			if got[i] != sorted[i].name {
				t.Fatalf("op %d: position %d = %s, model %s", op, i, got[i], sorted[i].name)
			}
		}
	}
}

// TestGangCoalescingStaysWithinPriorityTier: gang coalescing never
// crosses tiers. Co-members of one group split across two priorities
// coalesce independently inside each tier — the high tier's first
// member pulls only its same-tier peers forward, and the low-tier
// members keep their place behind every higher-priority pod instead of
// being hoisted up to join the gang.
func TestGangCoalescingStaysWithinPriorityTier(t *testing.T) {
	q := newPendingQueue()
	// Tier 5: solo, gang, solo, gang — g-hi-2 should coalesce up next
	// to g-hi-1, but no further than its own tier.
	q.Push("solo-hi-1", 5, "", "")
	q.Push("g-hi-1", 5, "ring", "")
	q.Push("solo-hi-2", 5, "", "")
	q.Push("g-hi-2", 5, "ring", "")
	// Tier 0: same shape, same group name.
	q.Push("solo-lo-1", 0, "", "")
	q.Push("g-lo-1", 0, "ring", "")
	q.Push("solo-lo-2", 0, "", "")
	q.Push("g-lo-2", 0, "ring", "")

	want := []string{
		"solo-hi-1", "g-hi-1", "g-hi-2", "solo-hi-2",
		"solo-lo-1", "g-lo-1", "g-lo-2", "solo-lo-2",
	}
	if got := q.Snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cross-tier gang order = %v, want %v", got, want)
	}

	// Removing one tier's members must not disturb the other tier's
	// coalescing (the group indexes are per-bucket).
	q.Remove("g-hi-1")
	q.Remove("solo-lo-1")
	want = []string{
		"solo-hi-1", "solo-hi-2", "g-hi-2",
		"g-lo-1", "g-lo-2", "solo-lo-2",
	}
	if got := q.Snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after removals = %v, want %v", got, want)
	}

	// Draining the high tier entirely leaves the low tier's gang intact
	// and adjacent.
	for _, name := range []string{"solo-hi-1", "solo-hi-2", "g-hi-2"} {
		q.Remove(name)
	}
	want = []string{"g-lo-1", "g-lo-2", "solo-lo-2"}
	if got := q.Snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after draining the high tier = %v, want %v", got, want)
	}
}

// TestGangCoalescingCrossTierWindowedVisit: the server-level windowed
// walk over a gang that straddles tiers returns the high-tier members
// coalesced inside the window and never pulls the low-tier co-members
// past higher-priority solo pods to fill it.
func TestGangCoalescingCrossTierWindowedVisit(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	gangPod := func(name string, prio int32, group string) *api.Pod {
		p := prioPod(name, prio)
		p.Spec.PodGroup = group
		return p
	}
	for _, p := range []*api.Pod{
		gangPod("m-hi-1", 5, "mpi"),
		prioPod("solo-hi", 5),
		gangPod("m-hi-2", 5, "mpi"),
		prioPod("solo-lo", 0),
		gangPod("m-lo-1", 0, "mpi"),
		gangPod("m-lo-2", 0, "mpi"),
	} {
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	srv.VisitPendingN("s", 4, func(p *api.Pod) bool {
		got = append(got, p.Name)
		return true
	})
	// The window sees the whole high tier (gang coalesced ahead of the
	// solo pushed between its members), then FCFS into tier 0: solo-lo
	// arrived first and keeps its place — the low-tier gang members do
	// not jump it to rejoin their high-tier co-members.
	want := []string{"m-hi-1", "m-hi-2", "solo-hi", "solo-lo"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windowed cross-tier visit = %v, want %v", got, want)
	}

	var full []string
	srv.VisitPending("s", func(p *api.Pod) bool {
		full = append(full, p.Name)
		return true
	})
	wantFull := []string{"m-hi-1", "m-hi-2", "solo-hi", "solo-lo", "m-lo-1", "m-lo-2"}
	if fmt.Sprint(full) != fmt.Sprint(wantFull) {
		t.Fatalf("full cross-tier visit = %v, want %v", full, wantFull)
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
// the windowed visit returns exactly the queue head in order — and that
// it never copies the whole queue: the per-call allocation count stays
// O(1) because the truncated name snapshot reuses a pooled buffer sized
// by the window, not the backlog.
func TestVisitPendingNWindowsDeepQueue(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	const depth = 100_000
	for i := 0; i < depth; i++ {
		// Priorities cycle so the head interleaves tiers; within a tier
		// FCFS order is submission order.
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

	// No O(queue) copy per call: after warmup the pooled name buffer is
	// reused, so a windowed walk over a 100k backlog allocates (next to)
	// nothing. A full-queue copy would show up as thousands of bytes of
	// slice growth every run.
	n := 0
	visit := func() {
		srv.VisitPendingN("s", window, func(p *api.Pod) bool {
			n++
			return true
		})
	}
	visit() // warm the pool
	// (Under the race detector sync.Pool drops buffers at random and the
	// instrumentation allocates, so the count is only meaningful without.)
	if allocs := testing.AllocsPerRun(50, visit); allocs > 1 && !raceEnabled {
		t.Fatalf("windowed visit allocates %.0f objects/run over a %d-deep queue, want <= 1", allocs, depth)
	}
	if n == 0 {
		t.Fatal("visit callback never ran")
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
