package stress

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// TestWorkloadLifeAllocations pins what one workload's whole life
// allocates, from Start to completion: the execution, which holds its
// process and its one timer, plus what the machine and the driver
// allocate for the memory it takes. Each later step re-arms that timer
// in place, so a step allocates nothing here; a step that arms a new
// timer or builds a new closure shows as a higher count.
func TestWorkloadLifeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name string
		m    *machine.Machine
		spec api.WorkloadSpec
		max  float64
	}{
		{"vm", machine.New("std", resource.GiB, 1000),
			api.WorkloadSpec{Kind: api.WorkloadStressVM, Duration: time.Minute, AllocBytes: resource.MiB}, 1},
		{"epc", sgxMachine(),
			api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: time.Minute, AllocBytes: resource.MiB}, 3},
		{"dynamic-epc", sgx2Machine(),
			api.WorkloadSpec{Kind: api.WorkloadStressEPCDynamic, Duration: time.Minute, AllocBytes: 2 * resource.MiB}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewSim()
			cfg := Config{Machine: tc.m, Cgroup: &cgroup.Cgroup{Name: "pod"}, Spec: tc.spec}
			got := testing.AllocsPerRun(100, func() {
				if err := new(Execution).Start(clk, cfg); err != nil {
					t.Fatal(err)
				}
				clk.Advance(2 * time.Minute)
			})
			t.Logf("%v objects", got)
			if got > tc.max {
				t.Fatalf("one workload life allocates %v times, want at most %v", got, tc.max)
			}
			if n := tc.m.ProcessCount(); n != 0 {
				t.Fatalf("%d processes left after completion", n)
			}
		})
	}
}

// TestAbortConcurrentWithSteps aborts workloads from one goroutine while
// another drives the simulated clock through their steps, so aborts land
// before, during and after steps of every kind. Each workload's
// OnFinished must fire exactly once, and once the clock has run out no
// process, RAM or EPC page may be left.
func TestAbortConcurrentWithSteps(t *testing.T) {
	const n = 400
	clk := clock.NewSim()
	std := machine.New("std", 64*resource.GiB, 8000)
	sgx1, sgx2 := sgxMachine(), sgx2Machine()
	freeEPC1, freeEPC2 := sgx1.Driver().FreePages(), sgx2.Driver().FreePages()

	calls := make([]atomic.Int32, n)
	exs := make([]*Execution, n)
	for i := range exs {
		cfg := Config{
			Cgroup: &cgroup.Cgroup{Name: fmt.Sprint(i)},
			OnFinished: finishedFunc(func(err error) {
				if err != nil && !errors.Is(err, ErrAborted) {
					t.Errorf("workload %d: finish err = %v", i, err)
				}
				calls[i].Add(1)
			}),
		}
		d := time.Duration(1+i%7) * time.Second
		switch i % 4 {
		case 0:
			cfg.Machine, cfg.Spec = std, api.WorkloadSpec{Kind: api.WorkloadStressVM, Duration: d, AllocBytes: resource.MiB}
		case 1:
			cfg.Machine, cfg.Spec = sgx1, api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: d, AllocBytes: 64 * resource.KiB}
		case 2:
			cfg.Machine, cfg.Spec = sgx2, api.WorkloadSpec{Kind: api.WorkloadStressEPCDynamic, Duration: d, AllocBytes: 64 * resource.KiB}
		default:
			cfg.Machine, cfg.Spec = std, api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: d}
		}
		exs[i] = new(Execution)
		if err := exs[i].Start(clk, cfg); err != nil {
			t.Fatal(err)
		}
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < n; i += 2 {
			exs[i].Abort()
			runtime.Gosched()
		}
	}()
	close(start)
	for clk.Step() {
	}
	wg.Wait()

	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Errorf("workload %d: OnFinished fired %d times, want 1", i, got)
		}
	}
	for _, m := range []*machine.Machine{std, sgx1, sgx2} {
		if got := m.ProcessCount(); got != 0 {
			t.Errorf("%s: %d processes leaked", m.Name(), got)
		}
		if got := m.RAMUsed(); got != 0 {
			t.Errorf("%s: %d bytes of RAM leaked", m.Name(), got)
		}
	}
	if got := sgx1.Driver().FreePages(); got != freeEPC1 {
		t.Errorf("SGX 1 EPC leaked: free = %d, want %d", got, freeEPC1)
	}
	if got := sgx2.Driver().FreePages(); got != freeEPC2 {
		t.Errorf("SGX 2 EPC leaked: free = %d, want %d", got, freeEPC2)
	}
}
