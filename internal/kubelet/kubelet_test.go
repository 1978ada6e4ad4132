package kubelet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

type fixture struct {
	clk  *clock.Sim
	srv  *apiserver.Server
	mach *machine.Machine
	kl   *Kubelet
}

func newFixture(t *testing.T, sgxNode bool, opts ...Option) *fixture {
	t.Helper()
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	var mach *machine.Machine
	if sgxNode {
		mach = machine.New("sgx-1", 8*resource.GiB, 8000, machine.WithSGX(sgx.DefaultGeometry()))
	} else {
		mach = machine.New("std-1", 64*resource.GiB, 8000)
	}
	kl := New(clk, srv, mach, opts...)
	if err := kl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(kl.Stop)
	return &fixture{clk: clk, srv: srv, mach: mach, kl: kl}
}

func sgxPod(name string, pages int64, alloc int64, dur time.Duration) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			SchedulerName: "sgx-binpack",
			Containers: []api.Container{{
				Name: "main",
				Resources: api.Requirements{
					Requests: resource.List{resource.Memory: 64 * resource.MiB, resource.EPCPages: pages},
					Limits:   resource.List{resource.EPCPages: pages},
				},
				Workload: api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: dur, AllocBytes: alloc},
			}},
		},
	}
}

func vmPod(name string, reqBytes, allocBytes int64, dur time.Duration) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.Memory: reqBytes}},
				Workload:  api.WorkloadSpec{Kind: api.WorkloadStressVM, Duration: dur, AllocBytes: allocBytes},
			}},
		},
	}
}

func TestStartRegistersNodeWithEPCResources(t *testing.T) {
	f := newFixture(t, true)
	node, err := f.srv.GetNode("sgx-1")
	if err != nil {
		t.Fatal(err)
	}
	if got := node.Allocatable.Get(resource.EPCPages); got != 23936 {
		t.Fatalf("allocatable EPC pages = %d, want 23936", got)
	}
	if !node.HasSGX() || !node.Ready {
		t.Fatalf("node = %+v", node)
	}
	if err := f.kl.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestStartNonSGXNodeHasNoEPC(t *testing.T) {
	f := newFixture(t, false)
	node, err := f.srv.GetNode("std-1")
	if err != nil {
		t.Fatal(err)
	}
	if node.HasSGX() {
		t.Fatal("non-SGX node advertises EPC")
	}
	if f.kl.Plugin() != nil {
		t.Fatal("plugin detected on non-SGX machine")
	}
}

func TestUnschedulableOption(t *testing.T) {
	f := newFixture(t, false, WithUnschedulable())
	node, _ := f.srv.GetNode("std-1")
	if !node.Unschedulable {
		t.Fatal("master node not marked unschedulable")
	}
}

func TestPodFullLifecycle(t *testing.T) {
	f := newFixture(t, true)
	pod := sgxPod("job-1", 2560, 10*resource.MiB, 60*time.Second)
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind("job-1", "sgx-1"); err != nil {
		t.Fatal(err)
	}

	// Admission latency, then Running.
	f.clk.Advance(DefaultAdmissionLatency)
	p, _ := f.srv.GetPod("job-1")
	if p.Status.Phase != api.PodRunning {
		t.Fatalf("phase after admission = %s", p.Status.Phase)
	}

	// Device allocation and driver limit registered on the pod's cgroup.
	if got := f.kl.Plugin().FreeDevices(); got != 23936-2560 {
		t.Fatalf("free devices = %d", got)
	}
	e := f.entry("job-1")
	if cg := &e.cg; cg.Path() != fmt.Sprintf("/kubepods/pod-uid-%06d", p.UID) || cg.DevicePages != 2560 || !cg.Limited || cg.LimitPages != 2560 {
		t.Fatalf("cgroup %s: %d devices, limit %d (set %v); want 2560, 2560", cg.Path(), cg.DevicePages, cg.LimitPages, cg.Limited)
	}

	// After SGX startup the enclave holds its pages.
	f.clk.Advance(time.Second)
	if got := f.mach.Driver().FreePages(); got != 23936-2560 {
		t.Fatalf("EPC free = %d, want %d", got, 23936-2560)
	}

	// Completion: phase Succeeded, resources released.
	f.clk.Advance(2 * time.Minute)
	p, _ = f.srv.GetPod("job-1")
	if p.Status.Phase != api.PodSucceeded {
		t.Fatalf("final phase = %s (%s)", p.Status.Phase, p.Status.Reason)
	}
	if got := f.kl.Plugin().FreeDevices(); got != 23936 {
		t.Fatalf("devices leaked: %d", got)
	}
	if got := f.mach.Driver().FreePages(); got != 23936 {
		t.Fatalf("EPC leaked: %d", got)
	}
	// The entry, and with it the cgroup and its limit, left the node
	// holding nothing.
	if f.entry("job-1") != nil || e.cg.DevicePages != 0 || e.cg.CommittedPages != 0 || e.cg.VMBytes != 0 {
		t.Fatalf("after completion: entry kept %v, cgroup holds %+v", f.entry("job-1") != nil, e.cg)
	}
	w, _ := p.WaitingTime()
	if w != DefaultAdmissionLatency {
		t.Fatalf("waiting time = %v, want %v", w, DefaultAdmissionLatency)
	}
}

func TestMaliciousPodKilledByLimit(t *testing.T) {
	f := newFixture(t, true)
	// Declares 1 page, allocates half the EPC (§VI-F).
	pod := sgxPod("mal-1", 1, f.mach.SGX().Geometry().UsableBytes()/2, time.Hour)
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind("mal-1", "sgx-1"); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Minute)
	p, _ := f.srv.GetPod("mal-1")
	if p.Status.Phase != api.PodFailed {
		t.Fatalf("phase = %s, want Failed", p.Status.Phase)
	}
	if !strings.Contains(p.Status.Reason, "denied") {
		t.Fatalf("reason = %q", p.Status.Reason)
	}
	if got := f.mach.Driver().FreePages(); got != 23936 {
		t.Fatalf("EPC leaked by killed pod: %d", got)
	}
	if got := f.kl.Plugin().FreeDevices(); got != 23936 {
		t.Fatalf("devices leaked by killed pod: %d", got)
	}
}

// entry returns the pod's admitted entry, nil if none is admitted.
func (f *fixture) entry(name string) *podEntry {
	f.kl.mu.Lock()
	defer f.kl.mu.Unlock()
	return f.kl.pods[name]
}

// forgeEPC rewrites the server's record of the fixture's node to
// advertise pages EPC page items its device plugin does not have. The
// server's conditional bind admits against that record, so a bind it
// accepts still meets the kubelet's own admission — the layer under test
// when a scheduler (or the record) is wrong.
func (f *fixture) forgeEPC(t *testing.T, pages int64) {
	t.Helper()
	n, err := f.srv.GetNode(f.mach.Name())
	if err != nil {
		t.Fatal(err)
	}
	n = n.Clone()
	n.Allocatable[resource.EPCPages] = pages
	if err := f.srv.UpdateNode(n); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfEPCAdmissionFails(t *testing.T) {
	f := newFixture(t, true)
	// The node's record claims twice the plugin's 23936 devices, so the
	// server binds two pods whose requests together exceed the device
	// pool — the second must fail the kubelet's device admission.
	f.forgeEPC(t, 2*23936)
	a := sgxPod("a", 20000, resource.MiB, time.Minute)
	b := sgxPod("b", 20000, resource.MiB, time.Minute)
	for _, p := range []*api.Pod{a, b} {
		if err := f.srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
		if err := f.srv.Bind(p.Name, "sgx-1"); err != nil {
			t.Fatal(err)
		}
	}
	f.clk.Advance(time.Second)
	pb, _ := f.srv.GetPod("b")
	if pb.Status.Phase != api.PodFailed || !strings.Contains(pb.Status.Reason, "OutOfEPC") {
		t.Fatalf("pod b = %s (%s)", pb.Status.Phase, pb.Status.Reason)
	}
	pa, _ := f.srv.GetPod("a")
	if pa.Status.Phase != api.PodRunning {
		t.Fatalf("pod a = %s", pa.Status.Phase)
	}
}

func TestSGXPodOnNonSGXNodeFails(t *testing.T) {
	f := newFixture(t, false)
	// The standard node's record claims EPC, so the server binds an SGX
	// pod to it — the kubelet, with no SGX device plugin, must fail it.
	f.forgeEPC(t, 1000)
	pod := sgxPod("job-1", 100, resource.MiB, time.Minute)
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind("job-1", "std-1"); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Second)
	p, _ := f.srv.GetPod("job-1")
	if p.Status.Phase != api.PodFailed || !strings.Contains(p.Status.Reason, "no SGX device plugin") {
		t.Fatalf("pod = %s (%s), want Failed for the missing plugin", p.Status.Phase, p.Status.Reason)
	}
}

func TestVMPodOverallocatingUnderUse(t *testing.T) {
	f := newFixture(t, false)
	// Advertises 1 GiB, actually uses 2 GiB — like the 44 over-allocating
	// Borg jobs (§VI-F); without enforcement on standard memory it runs.
	pod := vmPod("over-1", resource.GiB, 2*resource.GiB, 30*time.Second)
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind("over-1", "std-1"); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(2 * time.Second)
	if got := f.mach.RAMUsed(); got != 2*resource.GiB {
		t.Fatalf("RAMUsed = %d, want actual usage 2 GiB", got)
	}
	f.clk.Advance(time.Minute)
	p, _ := f.srv.GetPod("over-1")
	if p.Status.Phase != api.PodSucceeded {
		t.Fatalf("phase = %s", p.Status.Phase)
	}
}

func TestPodWithNoWorkloadSucceedsImmediately(t *testing.T) {
	f := newFixture(t, false)
	pod := &api.Pod{Name: "empty", Spec: api.PodSpec{Containers: []api.Container{{Name: "noop"}}}}
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind("empty", "std-1"); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Second)
	p, _ := f.srv.GetPod("empty")
	if p.Status.Phase != api.PodSucceeded {
		t.Fatalf("phase = %s", p.Status.Phase)
	}
}

func TestMultiContainerPodFailsTogether(t *testing.T) {
	f := newFixture(t, true)
	pod := &api.Pod{
		Name: "multi",
		Spec: api.PodSpec{
			Containers: []api.Container{
				{
					Name:      "good",
					Resources: api.Requirements{Requests: resource.List{resource.EPCPages: 100}},
					Workload:  api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: time.Hour, AllocBytes: 100 * 4096},
				},
				{
					Name: "bad",
					// Allocates more EPC than the pod's total limit.
					Workload: api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: time.Hour, AllocBytes: resource.MiB},
				},
			},
		},
	}
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind("multi", "sgx-1"); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Minute)
	p, _ := f.srv.GetPod("multi")
	if p.Status.Phase != api.PodFailed {
		t.Fatalf("phase = %s, want Failed", p.Status.Phase)
	}
	// Both containers' resources must be fully released.
	if got := f.mach.Driver().FreePages(); got != 23936 {
		t.Fatalf("EPC leaked: %d", got)
	}
	if got := f.mach.ProcessCount(); got != 0 {
		t.Fatalf("processes leaked: %d", got)
	}
}

func TestPodStats(t *testing.T) {
	f := newFixture(t, true)
	pod := sgxPod("job-1", 2560, 10*resource.MiB, time.Hour)
	pod.Spec.Containers[0].Workload.AllocBytes = 10 * resource.MiB
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind("job-1", "sgx-1"); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(2 * time.Second) // admission + SGX startup
	stats := f.kl.PodStats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].PodName != "job-1" {
		t.Fatalf("stat pod = %s", stats[0].PodName)
	}
	if stats[0].EPCBytes != 10*resource.MiB {
		t.Fatalf("EPCBytes = %d, want %d", stats[0].EPCBytes, 10*resource.MiB)
	}
}

func TestStopAbortsWorkloads(t *testing.T) {
	f := newFixture(t, false)
	pod := vmPod("long", resource.GiB, resource.GiB, 10*time.Hour)
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind("long", "std-1"); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(2 * time.Second)
	if got := f.mach.RAMUsed(); got == 0 {
		t.Fatal("workload not running before Stop")
	}
	f.kl.Stop()
	if got := f.mach.RAMUsed(); got != 0 {
		t.Fatalf("Stop leaked RAM: %d", got)
	}
}

// TestPreemptedPodKilledAndReleased: a preemption (re-queue with the
// binding cleared) must abort the running workload and release its
// devices, without failing the pod.
func TestPreemptedPodKilledAndReleased(t *testing.T) {
	f := newFixture(t, true)
	pod := sgxPod("victim", 2000, 4*resource.MiB, time.Hour)
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind("victim", "sgx-1"); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(5 * time.Second)
	total := f.kl.Plugin().DeviceCount()
	if got := f.kl.Plugin().FreeDevices(); got != total-2000 {
		t.Fatalf("devices before preemption = %d, want %d", got, total-2000)
	}

	if err := f.srv.Preempt("victim", "test"); err != nil {
		t.Fatal(err)
	}
	if got := f.kl.Plugin().FreeDevices(); got != total {
		t.Fatalf("devices after preemption = %d, want all %d released", got, total)
	}
	p, _ := f.srv.GetPod("victim")
	if p.Status.Phase != api.PodPending {
		t.Fatalf("preempted pod = %s, want Pending (not Failed)", p.Status.Phase)
	}
	if len(f.kl.PodStats()) != 0 {
		t.Fatal("kubelet still reports stats for the preempted pod")
	}
}

// TestSameInstantRebindAdmitsOnce: bind → preempt → re-bind to the same
// node within one simulated instant leaves two pending admissions with
// identical ScheduledAt stamps; only one may launch, and the duplicate
// must not corrupt device accounting by releasing the live pod's EPC.
func TestSameInstantRebindAdmitsOnce(t *testing.T) {
	f := newFixture(t, true)
	pod := sgxPod("flapper", 2000, 4*resource.MiB, 30*time.Second)
	if err := f.srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	// All three transitions at the same sim time: two admissions race.
	if err := f.srv.Bind("flapper", "sgx-1"); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Preempt("flapper", "flap"); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Bind("flapper", "sgx-1"); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(5 * time.Second)

	p, _ := f.srv.GetPod("flapper")
	if p.Status.Phase != api.PodRunning {
		t.Fatalf("pod = %s (%s), want Running", p.Status.Phase, p.Status.Reason)
	}
	total := f.kl.Plugin().DeviceCount()
	if got := f.kl.Plugin().FreeDevices(); got != total-2000 {
		t.Fatalf("devices while running = %d, want %d (duplicate admit corrupted accounting)", got, total-2000)
	}
	// The workload must still complete normally and return its devices.
	f.clk.Advance(2 * time.Minute)
	p, _ = f.srv.GetPod("flapper")
	if p.Status.Phase != api.PodSucceeded {
		t.Fatalf("pod = %s (%s), want Succeeded", p.Status.Phase, p.Status.Reason)
	}
	if got := f.kl.Plugin().FreeDevices(); got != total {
		t.Fatalf("devices after completion = %d, want %d", got, total)
	}
}

// TestPodStatsSortedAndCheap: the stats endpoint every collector scrapes
// on every node answers sorted by pod name without allocating, however
// many pods run: the (name, cgroup) pairs and the result are refilled into
// the kubelet's own buffers, and each pod's figures are lookups.
func TestPodStatsSortedAndCheap(t *testing.T) {
	f := newFixture(t, false)
	names := []string{"m", "c", "x", "a", "k", "b", "z", "d", "q", "e", "y", "f"}
	for _, name := range names {
		if err := f.srv.CreatePod(vmPod(name, resource.MiB, resource.MiB, time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := f.srv.Bind(name, "std-1"); err != nil {
			t.Fatal(err)
		}
	}
	f.clk.Advance(2 * time.Second)
	stats := f.kl.PodStats()
	if len(stats) != len(names) {
		t.Fatalf("%d stats, want %d", len(stats), len(names))
	}
	for i, s := range stats {
		if i > 0 && stats[i-1].PodName >= s.PodName {
			t.Fatalf("stats not sorted by pod name: %+v", stats)
		}
		if s.MemoryBytes != resource.MiB {
			t.Fatalf("pod %s reports %d bytes, want %d", s.PodName, s.MemoryBytes, resource.MiB)
		}
	}
	if got := testing.AllocsPerRun(100, func() { f.kl.PodStats() }); got != 0 && !raceEnabled {
		t.Fatalf("PodStats allocates %v times, want 0", got)
	}
}
