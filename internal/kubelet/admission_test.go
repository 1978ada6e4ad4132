package kubelet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// admissionAllocsBefore is what admitting and completing a one-workload
// pod allocated (735 objects over the 64 pods below) while the kubelet
// collected the workloads into a slice, grew each entry's executions from
// nil and handed every workload its own completion closure.
const admissionAllocsBefore = 735.0 / 64

// TestAdmissionLifeAllocations pins what one pod's stay on its node
// allocates: the admission (the server read, MarkRunning's version, the
// workload's launch) and the completion (the workload's end and
// MarkSucceeded). The entry is the workload's completion callback and
// holds its first execution inline, and the containers are counted in
// place, so the pod costs at least three objects fewer than before.
func TestAdmissionLifeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	perPod := func() float64 {
		f := newFixture(t, false)
		const pods = 64
		for i := 0; i < pods; i++ {
			name := fmt.Sprintf("job-%02d", i)
			if err := f.srv.CreatePod(vmPod(name, resource.MiB, resource.MiB, 10*time.Second)); err != nil {
				t.Fatal(err)
			}
			// The bind arms the admission timer; what is counted below
			// starts when it fires.
			if err := f.srv.Bind(name, "std-1"); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f.clk.Advance(time.Minute)
		runtime.ReadMemStats(&after)
		f.srv.VisitPods(func(p *api.Pod) bool {
			if p.Status.Phase != api.PodSucceeded {
				t.Fatalf("pod %s = %s (%s), want Succeeded", p.Name, p.Status.Phase, p.Status.Reason)
			}
			return true
		})
		return float64(after.Mallocs-before.Mallocs) / pods
	}
	got := perPod()
	for i := 0; i < 2; i++ { // the least of three: a stray runtime allocation only adds
		got = min(got, perPod())
	}
	t.Logf("%.3f objects per pod", got)
	if got > admissionAllocsBefore-3 {
		t.Fatalf("admitting and completing a one-workload pod allocates %.3f objects, want at most %.3f",
			got, admissionAllocsBefore-3)
	}
}

// multiPod is a three-container SGX pod: an EPC stressor, a memory
// stressor and a sleeper, running dur, dur + 1 s and dur + 2 s.
func multiPod(name string, dur time.Duration) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			Containers: []api.Container{
				{
					Name: "enclave",
					Resources: api.Requirements{
						Requests: resource.List{resource.Memory: 16 * resource.MiB, resource.EPCPages: 200},
						Limits:   resource.List{resource.EPCPages: 200},
					},
					Workload: api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: dur, AllocBytes: 100 * resource.EPCPageSize},
				},
				{
					Name:      "vm",
					Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.MiB}},
					Workload:  api.WorkloadSpec{Kind: api.WorkloadStressVM, Duration: dur + time.Second, AllocBytes: resource.MiB},
				},
				{
					Name:     "sleep",
					Workload: api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: dur + 2*time.Second},
				},
			},
		},
	}
}

// TestKubeletTeardownDuringAdmissionConcurrent: while the clock admits
// multi-container pods, another goroutine evicts or preempts each of them
// — at a random step around its admission, or the moment it reads Running,
// while the admission is launching its containers — and preempted pods
// are bound again once. The workloads run for hours, so none has ended
// when the racing stops. Then every live process is an execution of an
// entry still admitted (no execution outlived its entry), and the devices
// held are those entries' requests. After the clock has run the rest to
// completion nothing is left: no entry, process, device allocation,
// driver limit, memory or EPC. Each execution reported its end exactly
// once: a completion never reported leaves its pod Running, and one
// reported twice ends a pod before its longest container has run.
func TestKubeletTeardownDuringAdmissionConcurrent(t *testing.T) {
	f := newFixture(t, true)
	const pods = 48
	names := make([]string, pods)
	durs := make([]time.Duration, pods)
	for p := range names {
		names[p] = fmt.Sprintf("pod-%02d", p)
		durs[p] = time.Duration(1+p%3) * time.Hour
		if err := f.srv.CreatePod(multiPod(names[p], durs[p])); err != nil {
			t.Fatal(err)
		}
	}
	plugin, drv := f.kl.Plugin(), f.mach.Driver()
	total := plugin.DeviceCount()

	// The driver binds pod p at step p, and the clock admits it during
	// step p+4 (DefaultAdmissionLatency is five steps). The racer waits for
	// the bind, then either 0–9 more steps or until the pod runs.
	var steps atomic.Int64
	raced := make(chan struct{})
	go func() {
		defer close(raced)
		rng := rand.New(rand.NewSource(int64(runtime.GOMAXPROCS(0))))
		for p, name := range names {
			wait := int64(p) + 1 + rng.Int63n(10)
			if rng.Intn(2) == 0 {
				for steps.Load() < wait {
					runtime.Gosched()
				}
			} else {
				for steps.Load() <= int64(p) {
					runtime.Gosched()
				}
				for steps.Load() < int64(p)+10 {
					if pod, _ := f.srv.GetPod(name); pod.Status.Phase == api.PodRunning {
						break
					}
				}
			}
			if rng.Intn(2) == 0 {
				_ = f.srv.Evict(name, "race")
			} else {
				_ = f.srv.Preempt(name, "race")
			}
		}
	}()
	racerDone := func() bool {
		select {
		case <-raced:
			return true
		default:
			return false
		}
	}
	rebound := make([]bool, pods)
	for step := 0; step < pods || !racerDone(); step++ {
		if step < pods {
			if err := f.srv.Bind(names[step], "sgx-1"); err != nil {
				t.Fatal(err) // nothing tears a pod down before its bind
			}
		}
		for p := 0; p < min(step, pods); p++ {
			if pod, _ := f.srv.GetPod(names[p]); !rebound[p] && pod.Status.Phase == api.PodPending {
				rebound[p] = true
				_ = f.srv.Bind(names[p], "sgx-1") // the racer may evict it first
			}
		}
		f.clk.Advance(DefaultAdmissionLatency / 5)
		steps.Add(1)
	}
	f.clk.Advance(2 * DefaultAdmissionLatency) // the last re-binds' admissions

	f.kl.mu.Lock()
	var live, held int64
	for _, e := range f.kl.pods {
		live += int64(len(e.executions))
		held += e.epcPages
	}
	f.kl.mu.Unlock()
	if n := int64(f.mach.ProcessCount()); n != live {
		t.Fatalf("%d processes live, but the admitted entries hold %d executions", n, live)
	}
	if free := plugin.FreeDevices(); free != total-held {
		t.Fatalf("%d of %d EPC devices free, want %d: the admitted entries hold %d", free, total, total-held, held)
	}

	f.clk.Advance(4 * time.Hour)
	f.kl.mu.Lock()
	left := len(f.kl.pods)
	f.kl.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d admission entries left", left)
	}
	if n := f.mach.ProcessCount(); n != 0 {
		t.Fatalf("%d processes left", n)
	}
	if free := plugin.FreeDevices(); free != total {
		t.Fatalf("%d of %d EPC devices free, want all", free, total)
	}
	if free, all := drv.FreePages(), drv.TotalEPCPages(); free != all {
		t.Fatalf("%d of %d EPC pages free, want all", free, all)
	}
	if used := f.mach.RAMUsed(); used != 0 {
		t.Fatalf("%d bytes of memory still in use", used)
	}
	for p, name := range names {
		pod, _ := f.srv.GetPod(name)
		cg := pod.CgroupPath()
		if _, ok := plugin.AllocationFor(cg); ok {
			t.Errorf("%s keeps a device allocation", name)
		}
		if _, ok := drv.LimitFor(cg); ok {
			t.Errorf("%s keeps a driver limit", name)
		}
		switch pod.Status.Phase {
		case api.PodSucceeded:
			// The sleeper is the longest container; a doubled completion
			// from a shorter one would have ended the pod early.
			if ran, longest := pod.Status.FinishedAt.Sub(pod.Status.StartedAt), durs[p]+2*time.Second; ran < longest {
				t.Errorf("%s succeeded after %v, before its longest container's %v", name, ran, longest)
			}
		case api.PodFailed, api.PodPending:
			// Evicted, or preempted and not bound again.
		default:
			t.Errorf("%s = %s (%s) after the clock ran out", name, pod.Status.Phase, pod.Status.Reason)
		}
	}
}
