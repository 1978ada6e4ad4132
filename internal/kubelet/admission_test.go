package kubelet

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// admissionAllocs pins TestAdmissionLifeAllocations at what it measures
// under go1.24: five objects per pod — the server's bound, running and
// succeeded versions of the pod, the node's admission entry and the
// enclave — plus 21 over the 64 pods, which the kubelet's entry table
// and the clock's timer heap allocate as they grow to 64. The pod's
// cgroup is a record inside its entry and its process keeps the enclave
// in an inline array, so neither allocates; the machine and the SGX
// package count their live processes and enclaves rather than keep a
// table of them. A closure or a fresh timer per bind, a workload's
// execution, process, step timer or handler on the heap, a cgroup path
// formed per admission, or a per-cgroup table entry each shows as one
// more object per pod, and a per-process or per-enclave table as 10
// more over the 64.
const admissionAllocs = (5*64 + 21) / 64.0

// TestAdmissionLifeAllocations pins what one SGX pod's stay on its node
// allocates, from its bind to its completion. The server's part is the
// bound, running and succeeded versions of the pod. The node's is the
// admission entry, which is the bind's timer and handler, holds the pod's
// cgroup record and the workload's execution with its process and step
// timer, and is the workload's completion callback; and the enclave the
// workload opens.
func TestAdmissionLifeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	perPod := func() float64 {
		f := newFixture(t, true)
		const pods = 64
		names := make([]string, pods)
		for i := range names {
			names[i] = fmt.Sprintf("job-%02d", i)
			if err := f.srv.CreatePod(sgxPod(names[i], 100, 100*resource.EPCPageSize, 10*time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, name := range names {
			if err := f.srv.Bind(name, "sgx-1"); err != nil {
				t.Fatal(err)
			}
		}
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
	if got > admissionAllocs {
		t.Fatalf("binding, admitting and completing a one-workload SGX pod allocates %.3f objects, want at most %.3f",
			got, admissionAllocs)
	}
}

// mixedPod is pod p of a concurrent test: an EPC stressor, a memory
// stressor or a sleeper by p % 3, running dur. The EPC pod requests more
// devices than its enclave commits, and each kind asks the node for
// something different: EPC devices and a driver limit, memory, nothing.
func mixedPod(name string, p int, dur time.Duration) *api.Pod {
	var c api.Container
	switch p % 3 {
	case 0:
		c = api.Container{
			Name: "enclave",
			Resources: api.Requirements{
				Requests: resource.List{resource.Memory: 16 * resource.MiB, resource.EPCPages: 200},
				Limits:   resource.List{resource.EPCPages: 200},
			},
			Workload: api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: dur, AllocBytes: 100 * resource.EPCPageSize},
		}
	case 1:
		c = api.Container{
			Name:      "vm",
			Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.MiB}},
			Workload:  api.WorkloadSpec{Kind: api.WorkloadStressVM, Duration: dur, AllocBytes: resource.MiB},
		}
	default:
		c = api.Container{Name: "sleep", Workload: api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: dur}}
	}
	return &api.Pod{Name: name, Spec: api.PodSpec{Containers: []api.Container{c}}}
}

// TestKubeletTeardownDuringAdmissionConcurrent: while the clock admits
// EPC, memory and sleeper pods, another goroutine evicts or preempts each
// of them — at a random step around its admission, or the moment it reads
// Running, while the admission is launching its workload — and preempted
// pods are bound again once. The workloads run for hours, so none has ended
// when the racing stops. Then every live process is an execution of an
// entry still admitted (no execution outlived its entry), and the devices
// held are those entries' requests. After the clock has run the rest to
// completion nothing is left: no entry, process, device allocation,
// driver limit, memory or EPC. Each execution reported its end exactly
// once: a completion never reported leaves its pod Running, and one
// reported for an earlier binding's aborted workload ends a re-bound pod
// before its workload has run.
func TestKubeletTeardownDuringAdmissionConcurrent(t *testing.T) {
	f := newFixture(t, true)
	const pods = 48
	names := make([]string, pods)
	durs := make([]time.Duration, pods)
	for p := range names {
		names[p] = fmt.Sprintf("pod-%02d", p)
		durs[p] = time.Duration(1+p%4) * time.Hour
		if err := f.srv.CreatePod(mixedPod(names[p], p, durs[p])); err != nil {
			t.Fatal(err)
		}
	}
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
	seen := checkEntriesHoldNode(t, f)
	f.clk.Advance(4 * time.Hour)
	checkNodeEmpty(t, f, names, seen)
	for p, name := range names {
		pod, _ := f.srv.GetPod(name)
		switch pod.Status.Phase {
		case api.PodSucceeded:
			if ran := pod.Status.FinishedAt.Sub(pod.Status.StartedAt); ran < durs[p] {
				t.Errorf("%s succeeded after %v, before its workload's %v", name, ran, durs[p])
			}
		case api.PodFailed, api.PodPending:
			// Evicted, or preempted and not bound again.
		default:
			t.Errorf("%s = %s (%s) after the clock ran out", name, pod.Status.Phase, pod.Status.Reason)
		}
	}
}

// checkEntriesHoldNode: with the clock still, every live process is a
// running workload of an entry still admitted (no execution outlived its
// entry); each admitted entry's cgroup holds its pod's EPC request in
// devices and its limit as a set driver limit (on a fresh record, a
// re-bound pod's too); and the devices held are those requests, so no
// entry was released twice or kept what it released. It returns the
// admitted entries.
func checkEntriesHoldNode(t *testing.T, f *fixture) (admitted []*podEntry) {
	t.Helper()
	f.kl.mu.Lock()
	var running, held int64
	for _, e := range f.kl.pods {
		if e.running {
			running++
		}
		req, limit := e.pod.TotalRequests().Get(resource.EPCPages), e.pod.TotalLimits().Get(resource.EPCPages)
		if limit == 0 {
			limit = req
		}
		held += req
		if e.cg.DevicePages != req || e.cg.Limited != (req > 0) || e.cg.LimitPages != limit {
			t.Errorf("%s's cgroup holds %d devices and limit %d (set %v), want %d and %d", e.pod.Name, e.cg.DevicePages, e.cg.LimitPages, e.cg.Limited, req, limit)
		}
		admitted = append(admitted, e)
	}
	f.kl.mu.Unlock()
	if n := int64(f.mach.ProcessCount()); n != running {
		t.Fatalf("%d processes live, but the admitted entries run %d workloads", n, running)
	}
	plugin := f.kl.Plugin()
	if free, total := plugin.FreeDevices(), plugin.DeviceCount(); free != total-held {
		t.Fatalf("%d of %d EPC devices free, want %d: the admitted entries hold %d", free, total, total-held, held)
	}
	return admitted
}

// checkNodeEmpty: once every pod has ended, the node keeps nothing of
// them: no entry, process, device allocation, memory or EPC page, and no
// cgroup record of the entries seen admitted holds any. No pod failed to
// set its driver limit: a pod bound to the node again got a fresh record.
func checkNodeEmpty(t *testing.T, f *fixture, names []string, seen []*podEntry) {
	t.Helper()
	f.kl.mu.Lock()
	left := len(f.kl.pods)
	f.kl.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d admission entries left", left)
	}
	if n := f.mach.ProcessCount(); n != 0 {
		t.Fatalf("%d processes left", n)
	}
	plugin, drv := f.kl.Plugin(), f.mach.Driver()
	if free, total := plugin.FreeDevices(), plugin.DeviceCount(); free != total {
		t.Fatalf("%d of %d EPC devices free, want all", free, total)
	}
	if free, all := drv.FreePages(), drv.TotalEPCPages(); free != all {
		t.Fatalf("%d of %d EPC pages free, want all", free, all)
	}
	if used := f.mach.RAMUsed(); used != 0 {
		t.Fatalf("%d bytes of memory still in use", used)
	}
	for _, e := range seen {
		if cg := &e.cg; cg.DevicePages != 0 || cg.VMBytes != 0 || cg.CommittedPages != 0 {
			t.Errorf("%s's ended entry's cgroup keeps %+v", e.pod.Name, *cg)
		}
	}
	for _, name := range names {
		if pod, _ := f.srv.GetPod(name); strings.HasPrefix(pod.Status.Reason, "SetLimit") {
			t.Errorf("%s failed admission: %s", name, pod.Status.Reason)
		}
	}
}

// TestResyncEvictionDuringStepsConcurrent: while the clock binds pods,
// admits them and runs their workloads' steps — all from timers embedded
// in the admission entries and their executions — another goroutine
// evicts or preempts random pods, the kubelet hearing it, or takes the
// kubelet off the stream, evicts or preempts one or two pods it does not
// hear of, and resyncs it against a fresh snapshot. The pods are EPC,
// memory and sleeper pods in turn. The workloads end within seconds, so aborts land
// before, during and after steps, and preempted pods are bound again
// once. With the clock still, the entries hold exactly the node's
// processes and devices; once the clock has run the rest out, the node
// keeps nothing, and no pod is left Running.
func TestResyncEvictionDuringStepsConcurrent(t *testing.T) {
	f := newFixture(t, true)
	const pods = 48
	names := make([]string, pods)
	for p := range names {
		names[p] = fmt.Sprintf("pod-%02d", p)
		if err := f.srv.CreatePod(mixedPod(names[p], p, time.Duration(1+p%4)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	// A resync's snapshot and its reconciliation happen, for the broker,
	// at one point of the stream; bindMu keeps the driver's binds out of
	// that window, as the broker's delivery order does.
	var bindMu sync.Mutex
	var steps atomic.Int64
	raced := make(chan struct{})
	go func() {
		defer close(raced)
		rng := rand.New(rand.NewSource(int64(runtime.GOMAXPROCS(0))))
		for i := 0; i < 3*pods; i++ {
			for steps.Load() < int64(i/3) {
				runtime.Gosched()
			}
			tearDown := func() {
				if name := names[rng.Intn(pods)]; rng.Intn(2) == 0 {
					_ = f.srv.Evict(name, "race")
				} else {
					_ = f.srv.Preempt(name, "race")
				}
			}
			if rng.Intn(2) == 0 {
				tearDown()
				continue
			}
			bindMu.Lock()
			f.detach()
			for range 1 + rng.Intn(2) {
				tearDown()
			}
			f.reattach()
			f.kl.resync(f.srv.SnapshotNow())
			bindMu.Unlock()
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
		bindMu.Lock()
		if step < pods {
			_ = f.srv.Bind(names[step], "sgx-1") // the racer may evict it first
		}
		for p := 0; p < min(step, pods); p++ {
			if pod, _ := f.srv.GetPod(names[p]); !rebound[p] && pod.Status.Phase == api.PodPending {
				rebound[p] = true
				_ = f.srv.Bind(names[p], "sgx-1")
			}
		}
		bindMu.Unlock()
		f.clk.Advance(DefaultAdmissionLatency / 5)
		steps.Add(1)
	}
	seen := checkEntriesHoldNode(t, f)
	f.clk.Advance(time.Hour)
	checkNodeEmpty(t, f, names, seen)
	for _, name := range names {
		if pod, _ := f.srv.GetPod(name); pod.Status.Phase == api.PodRunning {
			t.Errorf("%s is still Running after the clock ran out", name)
		}
	}
}
