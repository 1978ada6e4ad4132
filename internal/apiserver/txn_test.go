package apiserver

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// TestEventPodSharesSpecKeepsStatus is the contract of the pod a watch
// event carries: the struct is the version its commit stored — its
// binding and status are the commit's, whatever the pod goes through
// afterwards — while the containers are shared by every version, never
// copied per commit. The read API hands out the same
// versions: GetPod returns the pointer the pod's last event carried, and
// a result handed out never shows a later commit.
func TestEventPodSharesSpecKeepsStatus(t *testing.T) {
	s := New(clock.NewSim())
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	var evs []WatchEvent
	defer s.SubscribeBatch(func(batch []WatchEvent) { evs = append(evs, batch...) }, nil)()

	submitted := testPod("p1")
	if err := s.CreatePod(submitted); err != nil {
		t.Fatal(err)
	}
	// The create severed the caller's pod from the stored one.
	submitted.Spec.Containers[0].Resources.Requests[resource.Memory] = 1
	created, err := s.GetPod("p1")
	if err != nil {
		t.Fatal(err)
	}
	stored := &created.Spec.Containers[0]
	if err := s.Bind("p1", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("p1"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkSucceeded("p1"); err != nil {
		t.Fatal(err)
	}

	want := []struct {
		typ   WatchEventType
		node  string
		phase api.PodPhase
	}{
		{PodCreated, "", api.PodPending},
		{PodBound, "n1", api.PodPending},
		{PodUpdated, "n1", api.PodRunning},
		{PodUpdated, "n1", api.PodSucceeded},
	}
	if len(evs) != len(want) {
		t.Fatalf("%d pod events, want %d", len(evs), len(want))
	}
	check := func(when string) {
		t.Helper()
		for i, w := range want {
			p := evs[i].Pod
			if evs[i].Type != w.typ || p.Spec.NodeName != w.node || p.Status.Phase != w.phase {
				t.Fatalf("%s: event %d is type %v on %q in phase %s, want %v on %q in %s — a later transition shows through",
					when, i, evs[i].Type, p.Spec.NodeName, p.Status.Phase, w.typ, w.node, w.phase)
			}
			if started := !p.Status.StartedAt.IsZero(); started != (i >= 2) {
				t.Fatalf("%s: event %d StartedAt set = %v", when, i, started)
			}
			if &p.Spec.Containers[0] != stored {
				t.Fatalf("%s: event %d carries its own copy of the containers, want the stored pod's backing array", when, i)
			}
			if got := p.Spec.Containers[0].Resources.Requests.Get(resource.Memory); got != resource.GiB {
				t.Fatalf("%s: event %d memory request = %d, want %d", when, i, got, resource.GiB)
			}
		}
	}
	check("after the pod's whole life")
	if created != evs[0].Pod || created.Spec.NodeName != "" || created.Status.Phase != api.PodPending {
		t.Fatalf("the GetPod result before the bind is not the PodCreated version: %+v", created)
	}

	got, err := s.GetPod("p1")
	if err != nil {
		t.Fatal(err)
	}
	if got != evs[len(evs)-1].Pod {
		t.Fatal("GetPod does not return the pointer the pod's last event carried")
	}
	// A caller that wants to edit a pod edits a clone; the stored version
	// and every event stay as they were.
	edit := got.Clone()
	edit.Spec.Containers[0].Resources.Requests[resource.Memory] = 7
	edit.Spec.Containers[0].Resources.Requests[resource.EPCPages] = 7
	edit.Status.Phase = api.PodFailed
	check("after editing a clone of a GetPod result")
	if again, _ := s.GetPod("p1"); again != got || again.Status.Phase != api.PodSucceeded ||
		again.IsSGX() ||
		again.Spec.Containers[0].Resources.Requests.Get(resource.Memory) != resource.GiB {
		t.Fatalf("editing a clone changed the stored pod: %+v", again)
	}
}

// refNode is the test's own account of which node an event concerns,
// read off the whole stream alone: a node event's node; a pod event's
// binding or permit; and for an update that leaves a pod the stream last
// saw bound unbound and pending again (a preemption), the node it left.
// Nothing else (a creation, a released permit, a terminal transition of
// an unbound pod) concerns a node. bound is the binding the stream has
// shown so far, kept by refNode.
func refNode(ev WatchEvent, bound map[string]string) string {
	if ev.Node != nil {
		return ev.Node.Name
	}
	p := ev.Pod
	was := bound[p.Name]
	if ev.Type != PodPermitHeld {
		bound[p.Name] = p.Spec.NodeName
	}
	if p.Spec.NodeName == "" && ev.Type == PodUpdated && p.Status.Phase == api.PodPending {
		return was
	}
	return p.Spec.NodeName
}

// TestSubscribeNodeIsTheStreamFilteredByNode drives every mutator that
// publishes — creates, binds, lifecycle transitions, Preempt, Evict of a
// bound and of a queued pod, Reserve, ReleaseGroup, CommitGroup,
// PreemptGroup, a permit holder's eviction and node updates — and wants
// each node's SubscribeNode watcher to have been sent exactly the whole
// stream filtered by refNode, in the same order. A preemption's event
// reaches the node the pod left, whose kubelet must kill the workload.
func TestSubscribeNodeIsTheStreamFilteredByNode(t *testing.T) {
	s := New(clock.NewSim())
	var all []WatchEvent
	defer s.SubscribeBatch(func(evs []WatchEvent) { all = append(all, evs...) }, nil)()
	nodes := []string{"n1", "n2", "n3"}
	perNode := map[string][]int64{}
	for _, n := range nodes {
		defer s.SubscribeNode(n, func(evs []WatchEvent) {
			for _, ev := range evs {
				perNode[n] = append(perNode[n], ev.Rev)
			}
		}, nil)()
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustN := func(_ int, err error) { t.Helper(); must(err) }
	for _, n := range nodes {
		must(s.RegisterNode(gangNode(n, resource.GiB)))
	}
	for _, name := range []string{"solo-1", "solo-2", "solo-3"} {
		must(s.CreatePod(prioPod(name, 0)))
	}
	for _, name := range []string{"g-a", "g-b", "g-c", "h-a"} {
		must(s.CreatePod(gangPod(name, name[:1], 2, 0)))
	}
	must(s.Bind("solo-1", "n1"))
	must(s.MarkRunning("solo-1"))
	must(s.Preempt("solo-1", "test"))
	must(s.Bind("solo-1", "n2"))
	must(s.MarkSucceeded("solo-1"))
	must(s.Bind("solo-2", "n3"))
	must(s.Evict("solo-2", "bound"))
	must(s.Evict("solo-3", "queued"))
	must(s.Reserve("g-a", "n1"))
	must(s.Reserve("g-b", "n2"))
	mustN(s.ReleaseGroup("g", "timeout"))
	must(s.Reserve("g-a", "n1"))
	must(s.Reserve("g-b", "n3"))
	mustN(s.CommitGroup("g"))
	must(s.MarkRunning("g-a"))
	must(s.Reserve("g-c", "n2"))
	mustN(s.PreemptGroup("g", "test"))
	must(s.Reserve("h-a", "n3"))
	must(s.Evict("h-a", "permit holder"))
	cordoned := gangNode("n2", resource.GiB)
	cordoned.Unschedulable = true
	must(s.UpdateNode(cordoned))

	bound := map[string]string{}
	want := map[string][]int64{}
	requeues := 0
	for _, ev := range all {
		n := refNode(ev, bound)
		if n != "" {
			want[n] = append(want[n], ev.Rev)
		}
		if ev.Pod != nil && ev.Pod.Spec.NodeName == "" && n != "" {
			requeues++
		}
	}
	if requeues != 3 { // solo-1 from n1, g-a from n1, g-b from n3
		t.Fatalf("the stream holds %d preemptions away from a node, want 3", requeues)
	}
	for _, n := range nodes {
		if !slices.Equal(perNode[n], want[n]) {
			t.Errorf("SubscribeNode(%s) was sent revs %v, want %v (the stream filtered by node)", n, perNode[n], want[n])
		}
	}
}

// TestTxnLadderGuardPanics: a stripe-form transaction takes one pod
// stripe and then one node stripe. A second pod stripe, or a pod stripe
// after the node stripe, climbs the ladder out of order and panics
// before it locks anything more; end still releases what was held.
func TestTxnLadderGuardPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		climb func(tx *txn, a, b string)
	}{
		{"second pod stripe", func(tx *txn, a, b string) { tx.pod(a); tx.pod(b) }},
		{"pod stripe after node stripe", func(tx *txn, a, _ string) { tx.node("n1"); tx.pod(a) }},
	} {
		s := New(clock.NewSim())
		a, b := "p-a", "p-0"
		for i := 1; s.podShardFor(b) == s.podShardFor(a); i++ {
			b = fmt.Sprintf("p-%d", i) // another stripe: a missed panic must not self-deadlock
		}
		panicked := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			tx := s.begin()
			defer tx.end()
			tc.climb(&tx, a, b)
			return false
		}()
		if !panicked {
			t.Errorf("%s: no panic", tc.name)
			continue // what it took out of order may still be held
		}
		// Every stripe was released: commits on them go through.
		if err := s.RegisterNode(testNode("n1", false)); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{a, b} {
			if err := s.CreatePod(testPod(name)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSubscribeWhileStripeHeld: registering a subscription reads the
// broker's head under the broker mutex and takes no stripe, so
// SubscribeBatch and SubscribeNode return while a commit holds a pod
// stripe, and are sent what is published after they registered.
func TestSubscribeWhileStripeHeld(t *testing.T) {
	s := New(clock.NewSim())
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	tx := s.begin()
	tx.pod("p-held")
	var whole, node []int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.SubscribeBatch(func(evs []WatchEvent) {
			for _, ev := range evs {
				whole = append(whole, ev.Rev)
			}
		}, nil)
		s.SubscribeNode("n1", func(evs []WatchEvent) {
			for _, ev := range evs {
				node = append(node, ev.Rev)
			}
		}, nil)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("SubscribeBatch/SubscribeNode blocked on a held pod stripe")
	}
	tx.end()
	<-done
	if err := s.CreatePod(testPod("p-held")); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("p-held", "n1"); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(whole, []int64{2, 3}) || !slices.Equal(node, []int64{3}) {
		t.Fatalf("whole stream got revs %v, node n1 %v; want [2 3] and [3]", whole, node)
	}
}
