package apiserver

import (
	"errors"
	"sync"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// reqPod builds a pending pod with explicit requests.
func reqPod(name string, req resource.List) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			SchedulerName: "s",
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: req},
			}},
		},
	}
}

// TestBindRefusesCordonedNode is the regression test for the cordon race:
// Bind used to stamp ScheduledAt and emit PodBound even when the target
// node was cordoned or drained mid-pass. The admission check must refuse
// with ErrConflict, keep the pod pending, publish nothing and count the
// refusal in BindStats.
func TestBindRefusesCordonedNode(t *testing.T) {
	clk := clock.NewSim()
	s := New(clk)
	node := testNode("n1", false)
	node.Unschedulable = true
	if err := s.RegisterNode(node); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePod(testPod("p1")); err != nil {
		t.Fatal(err)
	}

	var podEvents int
	unsub := s.Subscribe(func(ev WatchEvent) {
		if ev.Pod != nil {
			podEvents++
		}
	})
	defer unsub()

	err := s.Bind("p1", "n1")
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("bind to cordoned node err = %v, want ErrConflict", err)
	}
	if errors.Is(err, ErrOutdated) {
		t.Fatalf("cordon refusal classified as capacity race: %v", err)
	}
	p, _ := s.GetPod("p1")
	if p.Spec.NodeName != "" || !p.Status.ScheduledAt.IsZero() || p.Status.Phase != api.PodPending {
		t.Fatalf("rejected bind mutated the pod: %+v", p)
	}
	if got := s.PendingCount(); got != 1 {
		t.Fatalf("pod left the queue on a rejected bind: pending = %d", got)
	}

	// NotReady nodes are refused the same way.
	node2 := testNode("n2", false)
	node2.Ready = false
	if err := s.RegisterNode(node2); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("p1", "n2"); !errors.Is(err, ErrConflict) {
		t.Fatalf("bind to NotReady node err = %v, want ErrConflict", err)
	}

	st := s.BindStats()
	if st.Attempts != 2 || st.Bound != 0 || st.RejectedNodeState != 2 {
		t.Fatalf("BindStats = %+v, want 2 attempts, 2 node-state rejections", st)
	}
	if podEvents != 0 {
		t.Fatalf("rejected binds emitted %d pod event(s)", podEvents)
	}
}

// TestBindConflictOnEPCCapacity: the per-node sum of EPC page-item
// requests is enforced at bind time in every admission mode — the §V-A
// no-over-commitment invariant. The loser gets ErrOutdated and binds
// normally once capacity frees.
func TestBindConflictOnEPCCapacity(t *testing.T) {
	clk := clock.NewSim()
	s := New(clk)
	if err := s.RegisterNode(testNode("sgx-1", true)); err != nil { // 23936 EPC pages
		t.Fatal(err)
	}
	epc := func(pages int64) resource.List {
		return resource.List{resource.Memory: resource.MiB, resource.EPCPages: pages}
	}
	for _, p := range []*api.Pod{reqPod("a", epc(20000)), reqPod("b", epc(20000))} {
		if err := s.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Bind("a", "sgx-1"); err != nil {
		t.Fatal(err)
	}
	err := s.Bind("b", "sgx-1")
	if !errors.Is(err, ErrOutdated) || !errors.Is(err, ErrConflict) {
		t.Fatalf("overcommitting bind err = %v, want ErrOutdated (an ErrConflict)", err)
	}
	if st := s.BindStats(); st.RejectedCapacity != 1 || st.Bound != 1 {
		t.Fatalf("BindStats = %+v", st)
	}

	// SGX pods can never bind non-SGX nodes, regardless of headroom.
	if err := s.RegisterNode(testNode("std-1", false)); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("b", "std-1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("SGX pod on non-SGX node err = %v, want ErrConflict", err)
	}

	// The winner finishing releases its committed devices; the loser's
	// retry now succeeds — conflict means "retry", not "failed".
	if err := s.MarkSucceeded("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("b", "sgx-1"); err != nil {
		t.Fatalf("retry after capacity freed: %v", err)
	}
}

// TestBindStaticOverfitRefused: even in the default (overcommit-friendly)
// mode a pod whose single request exceeds the node's total allocatable
// can never bind — no amount of usage reclamation makes it fit.
func TestBindStaticOverfitRefused(t *testing.T) {
	s := New(clock.NewSim())
	if err := s.RegisterNode(testNode("n1", false)); err != nil { // 64 GiB
		t.Fatal(err)
	}
	if err := s.CreatePod(reqPod("huge", resource.List{resource.Memory: 65 * resource.GiB})); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("huge", "n1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("statically impossible bind err = %v, want ErrConflict", err)
	}
}

// TestBindGuardedAllowsMemoryOvercommit: guarded admission must accept
// request-sum memory overcommit — usage-aware scheduling (§V-B) relies on
// binding pods whose requests exceed what request accounting would allow.
func TestBindGuardedAllowsMemoryOvercommit(t *testing.T) {
	s := New(clock.NewSim())
	if err := s.RegisterNode(testNode("n1", false)); err != nil { // 64 GiB
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := s.CreatePod(reqPod(name, resource.List{resource.Memory: 40 * resource.GiB})); err != nil {
			t.Fatal(err)
		}
		if err := s.Bind(name, "n1"); err != nil {
			t.Fatalf("guarded admission refused legal overcommit for %s: %v", name, err)
		}
	}
}

// TestBindStrictMemoryAdmission: AdmitStrict enforces request sums for
// memory, so the second 40 GiB pod on a 64 GiB node loses with
// ErrOutdated; preempting the winner frees the committed requests.
func TestBindStrictMemoryAdmission(t *testing.T) {
	s := New(clock.NewSim(), WithAdmission(AdmitStrict))
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := s.CreatePod(reqPod(name, resource.List{resource.Memory: 40 * resource.GiB})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Bind("a", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("b", "n1"); !errors.Is(err, ErrOutdated) {
		t.Fatalf("strict overcommit err = %v, want ErrOutdated", err)
	}
	if got := s.Committed("n1").Get(resource.Memory); got != 40*resource.GiB {
		t.Fatalf("committed = %d, want 40 GiB", got)
	}
	if err := s.Preempt("a", "test"); err != nil {
		t.Fatal(err)
	}
	if got := s.Committed("n1").Get(resource.Memory); got != 0 {
		t.Fatalf("committed after preempt = %d, want 0", got)
	}
	if err := s.Bind("b", "n1"); err != nil {
		t.Fatalf("bind after preemption freed capacity: %v", err)
	}
}

// TestCreatePodRefusesNegativeQuantities: a negative request would pass
// admission (nothing to fit) and then lower the node's committed sum, so
// later binds over-commit EPC — 30 pages bound on a 10-page node before
// the check. It is refused at create, and the node then takes exactly
// what it has.
func TestCreatePodRefusesNegativeQuantities(t *testing.T) {
	s := New(clock.NewSim())
	n := testNode("sgx", true)
	n.Allocatable[resource.EPCPages] = 10
	if err := s.RegisterNode(n); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePod(reqPod("neg", resource.List{resource.EPCPages: -100})); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative request err = %v, want ErrInvalid", err)
	}
	lim := reqPod("neglim", resource.List{resource.EPCPages: 1})
	lim.Spec.Containers[0].Resources.Limits[resource.Memory] = -1
	if err := s.CreatePod(lim); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative limit err = %v, want ErrInvalid", err)
	}
	if _, err := s.GetPod("neg"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused pod was stored: err = %v", err)
	}
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("refused pods queued: pending = %d", got)
	}
	var bound int
	for _, name := range []string{"a", "b", "c"} {
		if err := s.CreatePod(reqPod(name, resource.List{resource.EPCPages: 10})); err != nil {
			t.Fatal(err)
		}
		if err := s.Bind(name, "sgx"); err == nil {
			bound++
		} else if !errors.Is(err, ErrOutdated) {
			t.Fatalf("bind %s: %v", name, err)
		}
	}
	if got := s.Committed("sgx"); bound != 1 || got != (resource.List{resource.EPCPages: 10}) {
		t.Fatalf("%d pods bound, committed %v; want 1 pod and 10 pages on a 10-page node", bound, got)
	}
}

// TestCreatePodRefusesSecondContainer: a pod runs one workload, so a
// two-container pod is invalid. The refusal publishes nothing, stores
// nothing and queues nothing, and the pod is not counted live.
func TestCreatePodRefusesSecondContainer(t *testing.T) {
	s := New(clock.NewSim())
	var evs []WatchEvent
	defer s.SubscribeBatch(func(batch []WatchEvent) { evs = append(evs, batch...) }, nil)()
	two := reqPod("two", resource.List{resource.Memory: resource.MiB})
	two.Spec.Containers = append(two.Spec.Containers, api.Container{Name: "sidecar"})
	if err := s.CreatePod(two); !errors.Is(err, ErrInvalid) {
		t.Fatalf("two-container pod err = %v, want ErrInvalid", err)
	}
	if _, err := s.GetPod("two"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused pod was stored: err = %v", err)
	}
	if len(evs) != 0 || s.PendingCount() != 0 || !s.AllTerminal() {
		t.Fatalf("refused pod published %d events, queued %d pods; AllTerminal = %v", len(evs), s.PendingCount(), s.AllTerminal())
	}
}

// TestBindRefusalReasonIsDeterministic: a pod over-asking both cpu and
// memory is refused for the same resource — the first in name order —
// on every server, in the error and in its BindStats class.
func TestBindRefusalReasonIsDeterministic(t *testing.T) {
	const want = "apiserver: conflicting state transition: pod big requests cpu=9000 beyond node n1 allocatable 8000"
	for trial := 0; trial < 50; trial++ {
		s := New(clock.NewSim())
		if err := s.RegisterNode(testNode("n1", false)); err != nil { // 64 GiB, 8000 millicores
			t.Fatal(err)
		}
		if err := s.CreatePod(reqPod("big", resource.List{resource.Memory: 65 * resource.GiB, resource.CPU: 9000})); err != nil {
			t.Fatal(err)
		}
		err := s.Bind("big", "n1")
		if !errors.Is(err, ErrConflict) || err.Error() != want {
			t.Fatalf("trial %d: bind err = %v, want %q", trial, err, want)
		}
		if st := s.BindStats(); st.RejectedNodeState != 1 || st.RejectedCapacity != 0 {
			t.Fatalf("trial %d: BindStats = %+v, want one node-state rejection", trial, st)
		}
	}
}

// TestConcurrentBindLastEPCDevice races two goroutines for the last EPC
// devices of one node: exactly one bind must win, the other must lose
// with ErrOutdated, and the committed accounting must equal the winner's
// request. Run under -race in CI.
func TestConcurrentBindLastEPCDevice(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		clk := clock.NewSim()
		s := New(clk)
		if err := s.RegisterNode(testNode("sgx-1", true)); err != nil {
			t.Fatal(err)
		}
		req := resource.List{resource.Memory: resource.MiB, resource.EPCPages: 13000}
		for _, name := range []string{"a", "b"} {
			if err := s.CreatePod(reqPod(name, req)); err != nil {
				t.Fatal(err)
			}
		}
		errs := make([]error, 2)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i, name := range []string{"a", "b"} {
			i, name := i, name
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				errs[i] = s.Bind(name, "sgx-1")
			}()
		}
		start.Done()
		wg.Wait()

		wins, losses := 0, 0
		for _, err := range errs {
			switch {
			case err == nil:
				wins++
			case errors.Is(err, ErrOutdated):
				losses++
			default:
				t.Fatalf("unexpected bind error: %v", err)
			}
		}
		if wins != 1 || losses != 1 {
			t.Fatalf("trial %d: wins = %d losses = %d, want exactly one winner", trial, wins, losses)
		}
		if got := s.Committed("sgx-1").Get(resource.EPCPages); got != 13000 {
			t.Fatalf("trial %d: committed EPC = %d, want 13000", trial, got)
		}
	}
}
