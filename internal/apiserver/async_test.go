package apiserver

import (
	"fmt"
	"sync"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// TestAsyncWatchDeliversAllInOrder: with async delivery, mutating calls
// return without running subscriber code, yet after QuiesceWatch every
// subscriber has observed the complete, ordered event stream.
func TestAsyncWatchDeliversAllInOrder(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk, WithAsyncWatch())
	defer srv.Close()

	var mu sync.Mutex
	var revs []int64
	batches := 0
	unsub := srv.SubscribeBatch(func(evs []WatchEvent) {
		mu.Lock()
		for _, ev := range evs {
			revs = append(revs, ev.Rev)
		}
		batches++
		mu.Unlock()
	}, nil)
	defer unsub()

	alloc := resource.List{resource.Memory: 64 * resource.GiB, resource.CPU: 8000}
	if err := srv.RegisterNode(&api.Node{Name: "n1", Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		pod := &api.Pod{
			Name: fmt.Sprintf("p%03d", i),
			Spec: api.PodSpec{Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.MiB}},
			}}},
		}
		if err := srv.CreatePod(pod); err != nil {
			t.Fatal(err)
		}
		if err := srv.Bind(pod.Name, "n1"); err != nil {
			t.Fatal(err)
		}
	}
	srv.QuiesceWatch()

	mu.Lock()
	defer mu.Unlock()
	want := int64(1 + 2*n) // node registration + (create, bind) per pod
	if int64(len(revs)) != want {
		t.Fatalf("delivered %d events, want %d", len(revs), want)
	}
	for i, rev := range revs {
		if rev != int64(i+1) {
			t.Fatalf("revs[%d] = %d — stream has gaps, duplicates or reordering", i, rev)
		}
	}
	st := srv.WatchStats()
	if st.Published != want || len(st.PerSubscriber) != 1 {
		t.Fatalf("watch stats = %+v, want %d published, 1 subscriber", st, want)
	}
	if st.PerSubscriber[0].Delivered != want {
		t.Fatalf("subscriber delivered = %d, want %d", st.PerSubscriber[0].Delivered, want)
	}
}

// TestSyncWatchDeliveryIsInline: the default mode still hands every
// event to every subscriber before the mutating call returns — the
// contract the simulation's determinism rests on.
func TestSyncWatchDeliveryIsInline(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	var seen []WatchEventType
	unsub := subscribeEach(srv, func(ev WatchEvent) { seen = append(seen, ev.Type) })
	defer unsub()

	alloc := resource.List{resource.Memory: resource.GiB, resource.CPU: 1000}
	if err := srv.RegisterNode(&api.Node{Name: "n1", Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != NodeRegistered {
		t.Fatalf("after RegisterNode returned, seen = %v — sync delivery is no longer inline", seen)
	}
	pod := &api.Pod{Name: "p", Spec: api.PodSpec{Containers: []api.Container{{Name: "c"}}}}
	if err := srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[1] != PodCreated {
		t.Fatalf("after CreatePod returned, seen = %v", seen)
	}
}
