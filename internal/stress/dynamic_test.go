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

func sgx2Machine(opts ...isgx.Option) *machine.Machine {
	return machine.New("sgx2-1", 8*resource.GiB, 8000,
		machine.WithSGX2(sgx.DefaultGeometry(), opts...))
}

func TestDynamicEPCRampProfile(t *testing.T) {
	clk := clock.NewSim()
	m := sgx2Machine()
	cg := &cgroup.Cgroup{Name: "dyn"}

	peak := 24 * resource.MiB
	base := 12 * resource.MiB
	done := false
	err := new(Execution).Start(clk, Config{
		Machine: m,
		Cgroup:  cg,
		Spec: api.WorkloadSpec{
			Kind:       api.WorkloadStressEPCDynamic,
			Duration:   90 * time.Second,
			AllocBytes: peak,
			BaseBytes:  base,
		},
		OnFinished: finishedFunc(func(err error) {
			if err != nil {
				t.Errorf("finish err = %v", err)
			}
			done = true
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	basePages := resource.PagesForBytes(base)
	peakPages := resource.PagesForBytes(peak)

	// Phase 1 (after startup): baseline committed.
	clk.Advance(2 * time.Second)
	if _, got := m.Usage(cg); got != basePages {
		t.Fatalf("phase 1 pages = %d, want %d", got, basePages)
	}
	// Phase 2 (middle third): burst to peak.
	clk.Advance(40 * time.Second)
	if _, got := m.Usage(cg); got != peakPages {
		t.Fatalf("phase 2 pages = %d, want %d", got, peakPages)
	}
	// Phase 3 (final third): trimmed back to baseline.
	clk.Advance(30 * time.Second)
	if _, got := m.Usage(cg); got != basePages {
		t.Fatalf("phase 3 pages = %d, want %d", got, basePages)
	}
	// Completion: everything released.
	clk.Advance(30 * time.Second)
	if !done {
		t.Fatal("workload did not finish")
	}
	if got := m.Driver().FreePages(); got != 23936 {
		t.Fatalf("EPC leaked: free = %d", got)
	}
}

func TestDynamicEPCBurstDeniedByLimit(t *testing.T) {
	clk := clock.NewSim()
	m := sgx2Machine()
	cg := &cgroup.Cgroup{Name: "dyn"}
	// Limit covers the baseline but not the burst: the §VI-G enforcement
	// port kills the job at EAUG time.
	if err := m.Driver().IoctlSetLimit(cg, resource.PagesForBytes(12*resource.MiB)); err != nil {
		t.Fatal(err)
	}
	var finishErr error
	err := new(Execution).Start(clk, Config{
		Machine: m,
		Cgroup:  cg,
		Spec: api.WorkloadSpec{
			Kind:       api.WorkloadStressEPCDynamic,
			Duration:   90 * time.Second,
			AllocBytes: 24 * resource.MiB,
			BaseBytes:  12 * resource.MiB,
		},
		OnFinished: finishedFunc(func(err error) { finishErr = err }),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if !errors.Is(finishErr, isgx.ErrEnclaveDenied) {
		t.Fatalf("finish err = %v, want ErrEnclaveDenied", finishErr)
	}
	if got := m.Driver().FreePages(); got != 23936 {
		t.Fatalf("killed burst leaked EPC: free = %d", got)
	}
}

func TestDynamicEPCDefaultBaseline(t *testing.T) {
	clk := clock.NewSim()
	m := sgx2Machine()
	cg := &cgroup.Cgroup{Name: "dyn"}
	err := new(Execution).Start(clk, Config{
		Machine: m,
		Cgroup:  cg,
		Spec: api.WorkloadSpec{
			Kind:       api.WorkloadStressEPCDynamic,
			Duration:   30 * time.Second,
			AllocBytes: 20 * resource.MiB,
			// BaseBytes zero: defaults to half the peak.
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if _, got := m.Usage(cg); got != resource.PagesForBytes(10*resource.MiB) {
		t.Fatalf("default baseline pages = %d", got)
	}
}

func TestDynamicEPCRequiresSGX2(t *testing.T) {
	clk := clock.NewSim()
	m := sgxMachine() // SGX 1
	err := new(Execution).Start(clk, Config{
		Machine: m,
		Cgroup:  new(cgroup.Cgroup),
		Spec: api.WorkloadSpec{
			Kind:       api.WorkloadStressEPCDynamic,
			Duration:   time.Minute,
			AllocBytes: resource.MiB,
		},
	})
	if !errors.Is(err, sgx.ErrSGX1Only) {
		t.Fatalf("err = %v, want ErrSGX1Only", err)
	}
	plain := machine.New("plain", resource.GiB, 1000)
	if err := new(Execution).Start(clk, Config{
		Machine: plain,
		Cgroup:  new(cgroup.Cgroup),
		Spec:    api.WorkloadSpec{Kind: api.WorkloadStressEPCDynamic, AllocBytes: 1},
	}); !errors.Is(err, machine.ErrNoSGX) {
		t.Fatalf("non-SGX err = %v", err)
	}
}
