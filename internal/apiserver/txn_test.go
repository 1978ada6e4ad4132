package apiserver

import (
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// TestEventPodSharesSpecKeepsStatus is the contract of the pod a watch
// event carries: the struct is the version its commit stored — its
// binding and status are the commit's, whatever the pod goes through
// afterwards — while the labels and containers are shared by every
// version, never copied per commit. The read API hands out the same
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
	submitted.Labels = map[string]string{"tier": "batch"}
	if err := s.CreatePod(submitted); err != nil {
		t.Fatal(err)
	}
	// The create severed the caller's pod from the stored one.
	submitted.Labels["tier"] = "edited"
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
			if p.Labels["tier"] != "batch" {
				t.Fatalf("%s: event %d labels = %v", when, i, p.Labels)
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
	edit.Labels["tier"] = "edited"
	edit.Status.Phase = api.PodFailed
	check("after editing a clone of a GetPod result")
	if again, _ := s.GetPod("p1"); again != got || again.Status.Phase != api.PodSucceeded ||
		again.Labels["tier"] != "batch" || again.IsSGX() ||
		again.Spec.Containers[0].Resources.Requests.Get(resource.Memory) != resource.GiB {
		t.Fatalf("editing a clone changed the stored pod: %+v", again)
	}
}
