package stress

import (
	"errors"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

// finishedFunc adapts a closure to Config.OnFinished.
type finishedFunc func(err error)

func (f finishedFunc) Finished(err error) { f(err) }

func sgxMachine(opts ...isgx.Option) *machine.Machine {
	return machine.New("sgx-1", 8*resource.GiB, 8000,
		machine.WithSGX(sgx.DefaultGeometry(), opts...))
}

func TestVMWorkloadLifecycle(t *testing.T) {
	clk := clock.NewSim()
	m := machine.New("std-1", 64*resource.GiB, 8000)

	var finishErr error
	finished := false
	err := new(Execution).Start(clk, Config{
		Machine: m,
		Cgroup:  &cgroup.Cgroup{Name: "1"},
		Spec: api.WorkloadSpec{
			Kind:       api.WorkloadStressVM,
			Duration:   time.Minute,
			AllocBytes: resource.GiB,
		},
		OnFinished: finishedFunc(func(err error) { finished = true; finishErr = err }),
	})
	if err != nil {
		t.Fatal(err)
	}

	// After startup (<1 ms), the working set is allocated.
	clk.Advance(time.Millisecond)
	if got := m.RAMUsed(); got != resource.GiB {
		t.Fatalf("RAMUsed after startup = %d, want 1 GiB", got)
	}

	// Before the duration elapses the workload holds its memory.
	clk.Advance(30 * time.Second)
	if finished {
		t.Fatal("finished too early")
	}

	clk.Advance(time.Minute)
	if !finished || finishErr != nil {
		t.Fatalf("finished = %v, err = %v", finished, finishErr)
	}
	if got := m.RAMUsed(); got != 0 {
		t.Fatalf("RAM leaked after completion: %d", got)
	}
}

func TestEPCWorkloadStartupLatency(t *testing.T) {
	clk := clock.NewSim()
	m := sgxMachine()

	allocBytes := 32 * resource.MiB
	var finishedAt time.Time
	err := new(Execution).Start(clk, Config{
		Machine: m,
		Cgroup:  &cgroup.Cgroup{Name: "1"},
		Spec: api.WorkloadSpec{
			Kind:       api.WorkloadStressEPC,
			Duration:   10 * time.Second,
			AllocBytes: allocBytes,
		},
		OnFinished: finishedFunc(func(error) { finishedAt = clk.Now() }),
	})
	if err != nil {
		t.Fatal(err)
	}

	startup := sgx.StartupLatency(allocBytes, m.SGX().Geometry().UsableBytes())

	// Just before the startup completes, no EPC is committed.
	clk.Advance(startup - time.Millisecond)
	if got := m.Driver().FreePages(); got != 23936 {
		t.Fatalf("EPC committed before startup finished: free = %d", got)
	}
	// Right after, the enclave holds its pages.
	clk.Advance(2 * time.Millisecond)
	wantPages := resource.PagesForBytes(allocBytes)
	if got := m.Driver().FreePages(); got != 23936-wantPages {
		t.Fatalf("free = %d, want %d", got, 23936-wantPages)
	}

	clk.Advance(time.Hour)
	wantFinish := clock.SimEpoch.Add(startup + 10*time.Second)
	// finish fires at startup+duration (±1ms from the stepped advance).
	if finishedAt.Before(wantFinish.Add(-2*time.Millisecond)) || finishedAt.After(wantFinish.Add(2*time.Millisecond)) {
		t.Fatalf("finishedAt = %v, want ~%v", finishedAt, wantFinish)
	}
	if got := m.Driver().FreePages(); got != 23936 {
		t.Fatalf("EPC leaked: free = %d", got)
	}
}

func TestEPCWorkloadDeniedByLimit(t *testing.T) {
	clk := clock.NewSim()
	m := sgxMachine()
	cg := &cgroup.Cgroup{Name: "malicious"}
	// Pod advertised 1 page (§VI-F malicious modus operandi).
	if err := m.Driver().IoctlSetLimit(cg, 1); err != nil {
		t.Fatal(err)
	}

	var finishErr error
	err := new(Execution).Start(clk, Config{
		Machine: m,
		Cgroup:  cg,
		Spec: api.WorkloadSpec{
			Kind:       api.WorkloadStressEPC,
			Duration:   time.Hour,
			AllocBytes: m.SGX().Geometry().UsableBytes() / 2,
		},
		OnFinished: finishedFunc(func(err error) { finishErr = err }),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	if !errors.Is(finishErr, isgx.ErrEnclaveDenied) {
		t.Fatalf("finish err = %v, want ErrEnclaveDenied", finishErr)
	}
	if got := m.Driver().FreePages(); got != 23936 {
		t.Fatalf("denied workload leaked EPC: free = %d", got)
	}
	if got := m.ProcessCount(); got != 0 {
		t.Fatalf("denied workload left process: %d", got)
	}
}

func TestEPCWorkloadOnNonSGXMachineRejected(t *testing.T) {
	clk := clock.NewSim()
	m := machine.New("std-1", 64*resource.GiB, 8000)
	err := new(Execution).Start(clk, Config{
		Machine: m,
		Cgroup:  new(cgroup.Cgroup),
		Spec:    api.WorkloadSpec{Kind: api.WorkloadStressEPC, AllocBytes: 1},
	})
	if !errors.Is(err, machine.ErrNoSGX) {
		t.Fatalf("err = %v, want ErrNoSGX", err)
	}
}

func TestVMWorkloadOOMKilled(t *testing.T) {
	clk := clock.NewSim()
	m := machine.New("tiny", resource.MiB, 1000)
	var finishErr error
	err := new(Execution).Start(clk, Config{
		Machine: m,
		Cgroup:  new(cgroup.Cgroup),
		Spec: api.WorkloadSpec{
			Kind:       api.WorkloadStressVM,
			Duration:   time.Minute,
			AllocBytes: 2 * resource.MiB,
		},
		OnFinished: finishedFunc(func(err error) { finishErr = err }),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if !errors.Is(finishErr, machine.ErrOutOfMemory) {
		t.Fatalf("finish err = %v, want ErrOutOfMemory", finishErr)
	}
	if got := m.RAMUsed(); got != 0 {
		t.Fatalf("OOM-killed workload leaked RAM: %d", got)
	}
}

func TestSleepWorkload(t *testing.T) {
	clk := clock.NewSim()
	m := machine.New("n", resource.GiB, 1000)
	done := false
	err := new(Execution).Start(clk, Config{
		Machine:    m,
		Cgroup:     new(cgroup.Cgroup),
		Spec:       api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: 5 * time.Second},
		OnFinished: finishedFunc(func(error) { done = true }),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(4 * time.Second)
	if done {
		t.Fatal("sleep finished early")
	}
	clk.Advance(2 * time.Second)
	if !done {
		t.Fatal("sleep did not finish")
	}
}

func TestAbort(t *testing.T) {
	clk := clock.NewSim()
	m := machine.New("n", resource.GiB, 1000)
	var finishErr error
	calls := 0
	ex := new(Execution)
	err := ex.Start(clk, Config{
		Machine:    m,
		Cgroup:     new(cgroup.Cgroup),
		Spec:       api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: time.Hour},
		OnFinished: finishedFunc(func(err error) { calls++; finishErr = err }),
	})
	if err != nil {
		t.Fatal(err)
	}
	ex.Abort()
	if !errors.Is(finishErr, ErrAborted) {
		t.Fatalf("finish err = %v, want ErrAborted", finishErr)
	}
	// Idempotent, and the pending timer must not fire afterwards.
	ex.Abort()
	clk.Advance(2 * time.Hour)
	if calls != 1 {
		t.Fatalf("OnFinished called %d times, want 1", calls)
	}
}

func TestUnknownWorkloadKind(t *testing.T) {
	clk := clock.NewSim()
	m := machine.New("n", resource.GiB, 1000)
	if err := new(Execution).Start(clk, Config{Machine: m, Cgroup: new(cgroup.Cgroup), Spec: api.WorkloadSpec{Kind: 0}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if got := m.ProcessCount(); got != 0 {
		t.Fatalf("leaked process on unknown kind: %d", got)
	}
}

func TestNilMachine(t *testing.T) {
	if err := new(Execution).Start(clock.NewSim(), Config{Cgroup: new(cgroup.Cgroup)}); err == nil {
		t.Fatal("nil machine accepted")
	}
	m := machine.New("n", resource.GiB, 1000)
	if err := new(Execution).Start(clock.NewSim(), Config{Machine: m}); err == nil {
		t.Fatal("nil cgroup accepted")
	}
}
