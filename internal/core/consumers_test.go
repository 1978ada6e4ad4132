package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/lifecycle"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// TestPodConsumersSkipNodeEventsInBatch: the kubelet and the lifecycle
// tracker read the one watch stream, node events included. A
// NodeRegistered and a NodeUpdated for a foreign node handed over in the
// same batch as the kubelet's own PodBound must change nothing: the pod
// is admitted and runs once, and the histograms count it once.
func TestPodConsumersSkipNodeEventsInBatch(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// First in subscription order, so it is served first: on the job's
	// creation it registers and updates the foreign node and binds the
	// job from inside delivery, and the sweep hands every later
	// subscriber the four events as one batch.
	alloc := resource.List{resource.Memory: resource.GiB, resource.CPU: 1000}
	foreign := &api.Node{Name: "foreign", Capacity: alloc, Allocatable: alloc, Ready: true}
	defer subscribeEach(srv, func(ev apiserver.WatchEvent) {
		if ev.Type != apiserver.PodCreated {
			return
		}
		must(srv.RegisterNode(foreign))
		foreign.Unschedulable = true
		must(srv.UpdateNode(foreign))
		must(srv.Bind("job", "std-1"))
	})()

	kl := kubelet.New(clk, srv, machine.New("std-1", 64*resource.GiB, 8000))
	must(kl.Start())
	defer kl.Stop()
	reg := telemetry.New()
	tracker := lifecycle.New(reg)
	tracker.Track(srv)
	defer tracker.Close()
	var batches []string
	defer srv.SubscribeBatch(func(evs []apiserver.WatchEvent) {
		var types []apiserver.WatchEventType
		for _, ev := range evs {
			types = append(types, ev.Type)
		}
		batches = append(batches, fmt.Sprint(types))
	}, nil)()

	must(srv.CreatePod(memJob("job", resource.GiB, resource.GiB, 10*time.Second)))
	want := fmt.Sprint([]apiserver.WatchEventType{apiserver.PodCreated, apiserver.NodeRegistered, apiserver.NodeUpdated, apiserver.PodBound})
	if len(batches) != 1 || batches[0] != want {
		t.Fatalf("consumers were handed batches %v, want the single batch %s", batches, want)
	}

	clk.Advance(2 * time.Second) // past the admission latency: the job runs
	if st := kl.PodStats(); len(st) != 1 || st[0].PodName != "job" {
		t.Fatalf("kubelet admitted %+v, want exactly the job", st)
	}
	clk.Advance(time.Minute) // the job completes
	if st := kl.PodStats(); len(st) != 0 {
		t.Fatalf("kubelet still holds %+v after completion", st)
	}
	if p, err := srv.GetPod("job"); err != nil || p.Status.Phase != api.PodSucceeded {
		t.Fatalf("job = %+v, %v, want Succeeded", p, err)
	}
	if tracker.BindsObserved() != 1 || tracker.RunsObserved() != 1 {
		t.Fatalf("tracker observed %d binds, %d runs, want 1 and 1", tracker.BindsObserved(), tracker.RunsObserved())
	}
	for _, name := range []string{"lifecycle_queue_seconds", "lifecycle_startup_seconds", "lifecycle_run_seconds"} {
		if n := reg.HistogramVec(name, "class", nil).With("unclassified").Count(); n != 1 {
			t.Fatalf("%s{unclassified} counts %d samples, want 1", name, n)
		}
	}
}
