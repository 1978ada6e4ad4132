package apiserver

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

func gangPod(name, group string, minMember int, prio int32) *api.Pod {
	p := prioPod(name, prio)
	p.Spec.PodGroup = group
	p.Spec.MinMember = minMember
	return p
}

func gangNode(name string, mem int64) *api.Node {
	return &api.Node{
		Name:        name,
		Capacity:    resource.List{resource.Memory: mem},
		Allocatable: resource.List{resource.Memory: mem},
		Ready:       true,
	}
}

// TestReserveHoldsCapacityWithoutBinding: a permit commits the member's
// capacity on the node and parks the pod out of the queue, but the
// authoritative binding stays empty until CommitGroup flips the whole
// gang at once.
func TestReserveHoldsCapacityWithoutBinding(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	if err := srv.RegisterNode(gangNode("n1", resource.GiB)); err != nil {
		t.Fatal(err)
	}
	var events []WatchEvent
	unsub := subscribeEach(srv, func(ev WatchEvent) { events = append(events, ev) })
	defer unsub()

	for _, name := range []string{"g-a", "g-b"} {
		if err := srv.CreatePod(gangPod(name, "g", 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CreatePod(prioPod("solo", 0)); err != nil {
		t.Fatal(err)
	}

	if err := srv.Reserve("g-a", "n1"); err != nil {
		t.Fatal(err)
	}
	p, _ := srv.GetPod("g-a")
	if p.Spec.NodeName != "" || p.Status.Phase != api.PodPending {
		t.Fatalf("reserved pod = %q/%s, want unbound Pending", p.Spec.NodeName, p.Status.Phase)
	}
	if got := srv.Committed("n1").Get(resource.Memory); got != resource.MiB {
		t.Fatalf("committed after reserve = %d, want %d", got, resource.MiB)
	}
	srv.VisitPending("", func(p *api.Pod) bool {
		if p.Name == "g-a" {
			t.Fatal("reserved pod still in the pending queue")
		}
		return true
	})
	last := events[len(events)-1]
	if last.Type != PodPermitHeld || last.Pod.Spec.NodeName != "n1" {
		t.Fatalf("last event = %v %q, want PodPermitHeld carrying n1", last.Type, last.Pod.Spec.NodeName)
	}

	// A held member cannot be bound or re-reserved; solo pods cannot
	// reserve at all.
	if err := srv.Bind("g-a", "n1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("Bind on held pod: err = %v, want ErrConflict", err)
	}
	if err := srv.Reserve("g-a", "n1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("double Reserve: err = %v, want ErrConflict", err)
	}
	if err := srv.Reserve("solo", "n1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("Reserve on solo pod: err = %v, want ErrConflict", err)
	}
	if err := srv.Reserve("ghost", "n1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Reserve on unknown pod: err = %v, want ErrNotFound", err)
	}

	if err := srv.Reserve("g-b", "n1"); err != nil {
		t.Fatal(err)
	}
	if held, bound, finished := srv.GangCounts("g"); held != 2 || bound != 0 || finished != 0 {
		t.Fatalf("GangCounts = %d, %d, %d, want 2 held", held, bound, finished)
	}
	mark := len(events)
	bound, err := srv.CommitGroup("g")
	if err != nil || bound != 2 {
		t.Fatalf("CommitGroup = %d, %v, want 2, nil", bound, err)
	}
	// The commit's PodBound events are consecutive: no foreign commit
	// interleaves the atomic step.
	commitEvents := events[mark:]
	if len(commitEvents) != 2 {
		t.Fatalf("commit emitted %d events, want 2", len(commitEvents))
	}
	for i, ev := range commitEvents {
		if ev.Type != PodBound || ev.Pod.Spec.PodGroup != "g" {
			t.Fatalf("commit event %d = %v group %q", i, ev.Type, ev.Pod.Spec.PodGroup)
		}
		if i > 0 && ev.Rev != commitEvents[i-1].Rev+1 {
			t.Fatalf("commit revs not consecutive: %d then %d", commitEvents[i-1].Rev, ev.Rev)
		}
	}
	if got := commitEvents[0].Pod.Name + " " + commitEvents[1].Pod.Name; got != "g-a g-b" {
		t.Fatalf("commit bound %s, want g-a g-b in name order", got)
	}
	if held, bound, finished := srv.GangCounts("g"); held != 0 || bound != 2 || finished != 0 {
		t.Fatalf("GangCounts after commit = %d, %d, %d, want 2 bound", held, bound, finished)
	}
	if n := srv.ReservationCount(); n != 0 {
		t.Fatalf("ReservationCount after commit = %d, want 0", n)
	}
	// Capacity was committed once, at Reserve — the commit must not
	// double-charge.
	if got := srv.Committed("n1").Get(resource.Memory); got != 2*resource.MiB {
		t.Fatalf("committed after commit = %d, want %d", got, 2*resource.MiB)
	}
	if _, err := srv.CommitGroup("g"); !errors.Is(err, ErrConflict) {
		t.Fatalf("CommitGroup with no permits: err = %v, want ErrConflict", err)
	}
	// Exactly the two granted permits were announced; the refused Reserve
	// calls published nothing.
	held := 0
	for _, ev := range events {
		if ev.Type == PodPermitHeld {
			held++
		}
	}
	if held != 2 {
		t.Fatalf("%d PodPermitHeld events, want 2", held)
	}
}

// TestReleaseGroupRollsBackWholesale: the permit-timeout path returns
// every held member's capacity and re-queues the members; nothing of the
// gang survives on the cluster.
func TestReleaseGroupRollsBackWholesale(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	if err := srv.RegisterNode(gangNode("n1", resource.GiB)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g-a", "g-b"} {
		if err := srv.CreatePod(gangPod(name, "g", 3, 0)); err != nil {
			t.Fatal(err)
		}
		if err := srv.Reserve(name, "n1"); err != nil {
			t.Fatal(err)
		}
	}
	var events []WatchEvent
	unsub := subscribeEach(srv, func(ev WatchEvent) { events = append(events, ev) })
	defer unsub()

	released, err := srv.ReleaseGroup("g", "quorum never arrived")
	if err != nil || released != 2 {
		t.Fatalf("ReleaseGroup = %d, %v, want 2, nil", released, err)
	}
	if got := srv.Committed("n1").Get(resource.Memory); got != 0 {
		t.Fatalf("committed after release = %d, want 0", got)
	}
	if n := srv.ReservationCount(); n != 0 {
		t.Fatalf("ReservationCount after release = %d, want 0", n)
	}
	if queued := visited(srv, "", 0); fmt.Sprint(queued) != "[g-a g-b]" {
		t.Fatalf("pending after release = %v, want [g-a g-b]", queued)
	}
	p, _ := srv.GetPod("g-a")
	if p.Status.Reason != "quorum never arrived" {
		t.Fatalf("reason = %q", p.Status.Reason)
	}
	if len(events) != 2 {
		t.Fatalf("release emitted %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev.Type != PodPermitReleased {
			t.Fatalf("event = %v, want only PodPermitReleased", ev.Type)
		}
	}
	// The members are schedulable again.
	if err := srv.Reserve("g-a", "n1"); err != nil {
		t.Fatalf("re-reserve after release: %v", err)
	}
}

// TestTerminalReservedPodReleasesCapacity: a pod that dies while holding
// a permit must not leak its committed capacity or its reservation.
func TestTerminalReservedPodReleasesCapacity(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	if err := srv.RegisterNode(gangNode("n1", resource.GiB)); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreatePod(gangPod("g-a", "g", 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reserve("g-a", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := srv.MarkFailed("g-a", "oom"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Committed("n1").Get(resource.Memory); got != 0 {
		t.Fatalf("committed after terminal transition = %d, want 0", got)
	}
	if n := srv.ReservationCount(); n != 0 {
		t.Fatalf("ReservationCount after terminal transition = %d, want 0", n)
	}
	if held, bound, finished := srv.GangCounts("g"); held != 0 || bound != 0 || finished != 1 {
		t.Fatalf("GangCounts after terminal transition = %d, %d, %d, want 1 finished", held, bound, finished)
	}
	if _, err := srv.CommitGroup("g"); !errors.Is(err, ErrConflict) {
		t.Fatalf("CommitGroup after member died: err = %v, want ErrConflict", err)
	}
}

// TestVisitPendingNSkipsPermitTakenConcurrently: VisitPendingN copies the
// pending names out, then visits each pod under its stripe. A gang member
// that takes a permit in between is still Pending and unbound, but no
// longer pending: fn must not see it. When fn holds the solo pod first
// and has not met the member yet, it has another goroutine reserve the
// member, on another stripe, and waits for it. The visit order is
// unspecified, so the visit is retried until it reaches the solo pod
// first; fn never reserves the pod in hand or one it already visited.
func TestVisitPendingNSkipsPermitTakenConcurrently(t *testing.T) {
	srv := New(clock.NewSim())
	if err := srv.RegisterNode(gangNode("n1", resource.GiB)); err != nil {
		t.Fatal(err)
	}
	later := "g-a"
	for i := 0; stripeFor(later) == stripeFor("first"); i++ {
		later = fmt.Sprintf("g-a%d", i)
	}
	for _, p := range []*api.Pod{prioPod("first", 0), gangPod(later, "g", 2, 0)} {
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	for attempt := 0; ; attempt++ {
		if attempt == 1000 {
			t.Fatalf("%d visits never reached first before %s", attempt, later)
		}
		var seen []string
		raced := false
		srv.VisitPendingN("", 0, func(p *api.Pod) bool {
			seen = append(seen, p.Name)
			if p.Name == "first" && !slices.Contains(seen, later) {
				raced = true
				reserved := make(chan error)
				go func() { reserved <- srv.Reserve(later, "n1") }()
				if err := <-reserved; err != nil {
					t.Errorf("reserve %s: %v", later, err)
				}
			}
			return true
		})
		if raced {
			if fmt.Sprint(seen) != "[first]" {
				t.Fatalf("visited %v, want [first]: %s took a permit before its visit", seen, later)
			}
			return
		}
	}
}

// TestReserveAdmissionRejectsOverCommit: permits pass through the same
// capacity admission as binds — a full node refuses further permits.
func TestReserveAdmissionRejectsOverCommit(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk, WithAdmission(AdmitStrict))
	if err := srv.RegisterNode(gangNode("n1", resource.MiB)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g-a", "g-b"} {
		if err := srv.CreatePod(gangPod(name, "g", 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var held []string
	defer subscribeEach(srv, func(ev WatchEvent) {
		if ev.Type == PodPermitHeld {
			held = append(held, ev.Pod.Name)
		}
	})()
	if err := srv.Reserve("g-a", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reserve("g-b", "n1"); !errors.Is(err, ErrOutdated) {
		t.Fatalf("over-committing Reserve: err = %v, want ErrOutdated", err)
	}
	if got := srv.Committed("n1").Get(resource.Memory); got != resource.MiB {
		t.Fatalf("committed = %d, want %d", got, resource.MiB)
	}
	found := false
	srv.VisitPending("", func(p *api.Pod) bool {
		found = found || p.Name == "g-b"
		return true
	})
	if !found {
		t.Fatal("rejected member fell out of the pending queue")
	}
	if fmt.Sprint(held) != "[g-a]" {
		t.Fatalf("permits announced for %v, want only [g-a]", held)
	}
}

// TestPreemptGroupEvictsWholeGangOrNothing: eviction displaces every
// member — bound and permit-holding alike — in one atomic step, and a
// second call finds nothing left to evict.
func TestPreemptGroupEvictsWholeGangOrNothing(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	if err := srv.RegisterNode(gangNode("n1", resource.GiB)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g-a", "g-b", "g-c"} {
		if err := srv.CreatePod(gangPod(name, "g", 3, 0)); err != nil {
			t.Fatal(err)
		}
		if err := srv.Reserve(name, "n1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.CommitGroup("g"); err != nil {
		t.Fatal(err)
	}
	// A straggler joins late and holds a permit when the preemption hits.
	if err := srv.CreatePod(gangPod("g-d", "g", 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reserve("g-d", "n1"); err != nil {
		t.Fatal(err)
	}

	evicted, err := srv.PreemptGroup("g", "make room")
	if err != nil || evicted != 4 {
		t.Fatalf("PreemptGroup = %d, %v, want 4, nil", evicted, err)
	}
	if got := srv.Committed("n1").Get(resource.Memory); got != 0 {
		t.Fatalf("committed after group preemption = %d, want 0", got)
	}
	if held, bound, _ := srv.GangCounts("g"); srv.ReservationCount() != 0 || held != 0 || bound != 0 {
		t.Fatalf("gang state survived: %d permits, %d held, %d bound", srv.ReservationCount(), held, bound)
	}
	n := 0
	srv.VisitPending("", func(p *api.Pod) bool {
		if p.Spec.NodeName != "" || p.Status.Phase != api.PodPending {
			t.Fatalf("evicted member %s = %q/%s", p.Name, p.Spec.NodeName, p.Status.Phase)
		}
		n++
		return true
	})
	if n != 4 {
		t.Fatalf("%d members re-queued, want 4", n)
	}
	p, _ := srv.GetPod("g-a")
	if p.Status.Reason != "Preempted: make room" {
		t.Fatalf("reason = %q", p.Status.Reason)
	}
	if _, err := srv.PreemptGroup("g", "again"); !errors.Is(err, ErrConflict) {
		t.Fatalf("second PreemptGroup: err = %v, want ErrConflict", err)
	}
}
