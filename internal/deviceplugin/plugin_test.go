package deviceplugin

import (
	"errors"
	"testing"
	"testing/quick"

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
	resp, err := p.Allocate("/kubepods/pod-1", 100)
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
	pages, ok := p.AllocationFor("/kubepods/pod-1")
	if !ok || pages != 100 {
		t.Fatalf("AllocationFor = %d, %v", pages, ok)
	}
}

func TestAllocateErrors(t *testing.T) {
	p := newPlugin()
	if _, err := p.Allocate("/kubepods/x", 0); err == nil {
		t.Fatal("zero-page allocation accepted")
	}
	if _, err := p.Allocate("/kubepods/x", -3); err == nil {
		t.Fatal("negative allocation accepted")
	}
	if _, err := p.Allocate("/kubepods/x", 23937); !errors.Is(err, ErrInsufficientDevices) {
		t.Fatalf("oversized err = %v", err)
	}
	if _, err := p.Allocate("/kubepods/x", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate("/kubepods/x", 10); !errors.Is(err, ErrAlreadyAllocated) {
		t.Fatalf("double alloc err = %v", err)
	}
}

func TestNoOvercommitAcrossPods(t *testing.T) {
	p := newPlugin()
	if _, err := p.Allocate("/kubepods/a", 23000); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate("/kubepods/b", 1000); !errors.Is(err, ErrInsufficientDevices) {
		t.Fatalf("overcommit err = %v", err)
	}
	// Exactly filling the remainder works.
	if _, err := p.Allocate("/kubepods/c", 936); err != nil {
		t.Fatal(err)
	}
	if got := p.FreeDevices(); got != 0 {
		t.Fatalf("FreeDevices = %d, want 0", got)
	}
}

func TestDeallocateIdempotent(t *testing.T) {
	p := newPlugin()
	if _, err := p.Allocate("/kubepods/a", 500); err != nil {
		t.Fatal(err)
	}
	p.Deallocate("/kubepods/a")
	if got := p.FreeDevices(); got != 23936 {
		t.Fatalf("FreeDevices after dealloc = %d", got)
	}
	p.Deallocate("/kubepods/a") // no-op
	p.Deallocate("/kubepods/never-allocated")
	if got := p.FreeDevices(); got != 23936 {
		t.Fatalf("FreeDevices after idempotent dealloc = %d", got)
	}
	if _, ok := p.AllocationFor("/kubepods/a"); ok {
		t.Fatal("allocation survived dealloc")
	}
}

// Property: free + sum(allocated) is invariant over any alloc/dealloc
// sequence.
func TestDeviceAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		p := newPlugin()
		total := p.DeviceCount()
		var live int64
		for i, op := range ops {
			cg := string(rune('a' + i%26))
			pages := int64(op%2000) + 1
			if i%3 == 2 {
				if held, ok := p.AllocationFor(cg); ok {
					p.Deallocate(cg)
					live -= held
				}
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
