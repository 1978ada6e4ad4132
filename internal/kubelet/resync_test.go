package kubelet

import (
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
)

// detach disconnects the kubelet from the watch stream without draining
// the node — the test stand-in for a subscriber that fell off the
// broker ring and is about to be handed a resync snapshot.
func (f *fixture) detach() {
	f.kl.mu.Lock()
	unsub := f.kl.unsubscribe
	f.kl.unsubscribe = nil
	f.kl.mu.Unlock()
	if unsub != nil {
		unsub()
	}
}

// reattach puts a detached kubelet back on its node's watch stream;
// what it missed in between is for a resync to reconcile.
func (f *fixture) reattach() {
	unsub := f.srv.SubscribeNode(f.kl.NodeName(), f.kl.onEvents, f.kl.resync)
	f.kl.mu.Lock()
	f.kl.unsubscribe = unsub
	f.kl.mu.Unlock()
}

// TestResyncAdmitsMissedBinding: a binding committed while the kubelet
// was off the watch stream is admitted on resync — the workload
// launches, devices are allocated, and the pod reaches Running.
func TestResyncAdmitsMissedBinding(t *testing.T) {
	f := newFixture(t, true)
	f.detach()

	pod := sgxPod("missed", 2000, 4*1024*1024, 30*time.Second)
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind(pod.Name, f.kl.NodeName()); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Second)
	if got, _ := f.srv.GetPod(pod.Name); got.Status.Phase != api.PodPending {
		t.Fatalf("pod admitted without any watch delivery: phase %s", got.Status.Phase)
	}

	f.kl.resync(f.srv.SnapshotNow())
	f.clk.Advance(DefaultAdmissionLatency)
	got, err := f.srv.GetPod(pod.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status.Phase != api.PodRunning {
		t.Fatalf("after resync, phase = %s, want Running", got.Status.Phase)
	}
	if e := f.entry(pod.Name); e == nil || e.cg.DevicePages != 2000 {
		t.Fatal("resync admission did not allocate EPC devices")
	}
}

// TestResyncKillsMissedEviction: a pod evicted while the kubelet was
// off the stream is torn down on resync — workload aborted, devices
// and driver limits released.
func TestResyncKillsMissedEviction(t *testing.T) {
	f := newFixture(t, true)
	pod := sgxPod("doomed", 2000, 4*1024*1024, time.Hour)
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind(pod.Name, f.kl.NodeName()); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Second)
	if got, _ := f.srv.GetPod(pod.Name); got.Status.Phase != api.PodRunning {
		t.Fatalf("setup: phase = %s, want Running", got.Status.Phase)
	}

	e := f.entry(pod.Name)
	f.detach()
	if err := f.srv.Evict(pod.Name, "missed"); err != nil {
		t.Fatal(err)
	}
	if e.cg.DevicePages != 2000 {
		t.Fatal("setup: devices should still be held (eviction event missed)")
	}

	f.kl.resync(f.srv.SnapshotNow())
	if e.cg.DevicePages != 0 || f.kl.Plugin().FreeDevices() != 23936 {
		t.Fatal("resync did not release the evicted pod's devices")
	}
	if stats := f.kl.PodStats(); len(stats) != 0 {
		t.Fatalf("resync left %d pods on the node, want 0", len(stats))
	}
}

// TestResyncIsIdempotentForLivePods: resyncing against a snapshot that
// matches local state must not relaunch or kill anything.
func TestResyncIsIdempotentForLivePods(t *testing.T) {
	f := newFixture(t, true)
	pod := sgxPod("steady", 1000, 2*1024*1024, time.Hour)
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind(pod.Name, f.kl.NodeName()); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Second)

	f.kl.resync(f.srv.SnapshotNow())
	f.clk.Advance(DefaultAdmissionLatency + time.Second)
	got, err := f.srv.GetPod(pod.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status.Phase != api.PodRunning {
		t.Fatalf("idempotent resync broke the pod: phase %s (%s)", got.Status.Phase, got.Status.Reason)
	}
	if stats := f.kl.PodStats(); len(stats) != 1 {
		t.Fatalf("pod count after idempotent resync = %d, want 1", len(stats))
	}
}
