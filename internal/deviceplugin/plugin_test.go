package deviceplugin

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

func newPlugin() *SGXPlugin {
	return New(isgx.New(sgx.NewPackage(sgx.DefaultGeometry())))
}

func TestDetect(t *testing.T) {
	sgxM := machine.New("sgx-1", 8*resource.GiB, 8000, machine.WithSGX(sgx.DefaultGeometry()))
	p, ok := Detect(sgxM)
	if !ok || p == nil {
		t.Fatal("Detect failed on SGX machine")
	}
	if p.ResourceName() != resource.EPCPages {
		t.Fatalf("ResourceName = %s", p.ResourceName())
	}
	plain := machine.New("std-1", 64*resource.GiB, 8000)
	if _, ok := Detect(plain); ok {
		t.Fatal("Detect succeeded on non-SGX machine")
	}
	if _, ok := Detect(nil); ok {
		t.Fatal("Detect succeeded on nil machine")
	}
}

func TestDeviceCountMatchesUsableEPC(t *testing.T) {
	p := newPlugin()
	// One resource item per usable EPC page: 23 936 (§V-A, §II).
	if got := p.DeviceCount(); got != 23936 {
		t.Fatalf("DeviceCount = %d, want 23936", got)
	}
	if got := p.FreeDevices(); got != 23936 {
		t.Fatalf("FreeDevices = %d, want 23936", got)
	}
}

func TestAllocateAndMounts(t *testing.T) {
	p := newPlugin()
	cg := &cgroup.Cgroup{Name: "1"}
	resp, err := p.Allocate(cg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Pages != 100 {
		t.Fatalf("granted pages = %d", resp.Pages)
	}
	if resp.Mount.HostPath != isgx.DevicePath || resp.Mount.ContainerPath != isgx.DevicePath {
		t.Fatalf("mount = %+v, want /dev/isgx", resp.Mount)
	}
	if got := p.FreeDevices(); got != 23836 {
		t.Fatalf("FreeDevices = %d", got)
	}
	if cg.DevicePages != 100 {
		t.Fatalf("cgroup holds %d pages, want 100", cg.DevicePages)
	}
}

func TestAllocateErrors(t *testing.T) {
	p := newPlugin()
	x := &cgroup.Cgroup{Name: "x"}
	if _, err := p.Allocate(x, 0); err == nil {
		t.Fatal("zero-page allocation accepted")
	}
	if _, err := p.Allocate(x, -3); err == nil {
		t.Fatal("negative allocation accepted")
	}
	if _, err := p.Allocate(x, 23937); !errors.Is(err, ErrInsufficientDevices) {
		t.Fatalf("oversized err = %v", err)
	}
	if _, err := p.Allocate(x, 10); err != nil {
		t.Fatal(err)
	}
	_, err := p.Allocate(x, 10)
	if !errors.Is(err, ErrAlreadyAllocated) || !strings.Contains(err.Error(), "/kubepods/pod-x") {
		t.Fatalf("double alloc err = %v, want ErrAlreadyAllocated naming the path", err)
	}
	if x.DevicePages != 10 || p.FreeDevices() != 23926 {
		t.Fatalf("after a refused second grant: cgroup %d pages, %d free", x.DevicePages, p.FreeDevices())
	}
}

func TestNoOvercommitAcrossPods(t *testing.T) {
	p := newPlugin()
	if _, err := p.Allocate(&cgroup.Cgroup{Name: "a"}, 23000); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(&cgroup.Cgroup{Name: "b"}, 1000); !errors.Is(err, ErrInsufficientDevices) {
		t.Fatalf("overcommit err = %v", err)
	}
	// Exactly filling the remainder works.
	if _, err := p.Allocate(&cgroup.Cgroup{Name: "c"}, 936); err != nil {
		t.Fatal(err)
	}
	if got := p.FreeDevices(); got != 0 {
		t.Fatalf("FreeDevices = %d, want 0", got)
	}
}

func TestDeallocateIdempotent(t *testing.T) {
	p := newPlugin()
	a := &cgroup.Cgroup{Name: "a"}
	if _, err := p.Allocate(a, 500); err != nil {
		t.Fatal(err)
	}
	p.Deallocate(a)
	if got := p.FreeDevices(); got != 23936 {
		t.Fatalf("FreeDevices after dealloc = %d", got)
	}
	p.Deallocate(a) // no-op
	p.Deallocate(&cgroup.Cgroup{Name: "never-allocated"})
	if got := p.FreeDevices(); got != 23936 {
		t.Fatalf("FreeDevices after idempotent dealloc = %d", got)
	}
	if a.DevicePages != 0 {
		t.Fatal("allocation survived dealloc")
	}
}

// Property: free + sum(allocated) is invariant over any alloc/dealloc
// sequence.
func TestDeviceAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		p := newPlugin()
		total := p.DeviceCount()
		var cgroups [26]cgroup.Cgroup
		var live int64
		for i, op := range ops {
			cg := &cgroups[i%26]
			pages := int64(op%2000) + 1
			if i%3 == 2 {
				live -= cg.DevicePages
				p.Deallocate(cg)
				continue
			}
			if _, err := p.Allocate(cg, pages); err == nil {
				live += pages
			}
			if p.FreeDevices()+live != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeviceAccountingConcurrent: kubelets' admissions and teardowns
// allocate and release distinct cgroups from other goroutines, each
// holding its grant across a yield. The free pool and the pages the
// records hold always add up to the device count, and no grant ever
// leaves the pool negative: two grants fit on the node, a third is
// refused. Run it under -race and at -cpu 1,2,4.
func TestDeviceAccountingConcurrent(t *testing.T) {
	const workers, rounds, pages = 8, 300, 10000
	p := newPlugin()
	total := p.DeviceCount()
	cgroups := make([]cgroup.Cgroup, workers)
	for w := range cgroups {
		cgroups[w] = cgroup.Cgroup{Name: fmt.Sprint("pod", w)}
	}
	// check reads every record's pages and the pool under the plugin's
	// lock, which owns them.
	check := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		var held int64
		for i := range cgroups {
			held += cgroups[i].DevicePages
		}
		if p.free < 0 || p.free+held != total {
			t.Errorf("free %d + held %d, want %d devices and none over-granted", p.free, held, total)
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	for w := range cgroups {
		cg := &cgroups[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := p.Allocate(cg, pages); err != nil && !errors.Is(err, ErrInsufficientDevices) {
					t.Error(err)
					return
				}
				if !check() {
					return
				}
				runtime.Gosched()
				p.Deallocate(cg)
			}
		}()
	}
	wg.Wait()
	if check() && p.FreeDevices() != total {
		t.Fatalf("at the end %d of %d devices free", p.FreeDevices(), total)
	}
}
