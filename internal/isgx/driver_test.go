package isgx

import (
	"errors"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/sgxorch/sgxorch/internal/sgx"
)

func newDriver(t *testing.T, opts ...Option) *Driver {
	t.Helper()
	return New(sgx.NewPackage(sgx.DefaultGeometry()), opts...)
}

func TestModuleParameters(t *testing.T) {
	d := newDriver(t)
	if got := d.TotalEPCPages(); got != 23936 {
		t.Fatalf("TotalEPCPages = %d, want 23936", got)
	}
	if got := d.FreePages(); got != 23936 {
		t.Fatalf("FreePages = %d, want 23936", got)
	}
	fs := d.Sysfs()
	if got := fs[SysfsDir+"/"+ParamTotalEPCPages]; got != "23936" {
		t.Fatalf("sysfs total = %q", got)
	}
	e, err := d.OpenEnclave(1, "/kubepods/a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Destroy(); err != nil {
			t.Fatal(err)
		}
	}()
	fs = d.Sysfs()
	if got := fs[SysfsDir+"/"+ParamFreePages]; got != strconv.Itoa(23936-1000) {
		t.Fatalf("sysfs free after alloc = %q, want %d", got, 23936-1000)
	}
}

func TestIoctlSetLimitWriteOnce(t *testing.T) {
	d := newDriver(t)
	if err := d.IoctlSetLimit("/kubepods/pod1", 100); err != nil {
		t.Fatal(err)
	}
	// "limits can only be set once for each pod" (§V-E).
	if err := d.IoctlSetLimit("/kubepods/pod1", 9999); !errors.Is(err, ErrLimitExists) {
		t.Fatalf("second IoctlSetLimit err = %v, want ErrLimitExists", err)
	}
	limit, ok := d.LimitFor("/kubepods/pod1")
	if !ok || limit != 100 {
		t.Fatalf("LimitFor = %d, %v; want 100, true", limit, ok)
	}
	// After teardown, the path can be reused.
	d.ClearLimit("/kubepods/pod1")
	if err := d.IoctlSetLimit("/kubepods/pod1", 50); err != nil {
		t.Fatalf("IoctlSetLimit after ClearLimit = %v", err)
	}
}

func TestIoctlSetLimitValidation(t *testing.T) {
	d := newDriver(t)
	if err := d.IoctlSetLimit("", 1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("empty cgroup err = %v", err)
	}
	if err := d.IoctlSetLimit("/x", -1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative limit err = %v", err)
	}
}

func TestEnclaveInitDeniedOverLimit(t *testing.T) {
	d := newDriver(t)
	if err := d.IoctlSetLimit("/kubepods/mal", 1); err != nil {
		t.Fatal(err)
	}
	// A malicious container declares 1 page but allocates far more
	// (§VI-F): the driver must deny initialization and release the pages.
	_, err := d.OpenEnclave(1, "/kubepods/mal", 11968)
	if !errors.Is(err, ErrEnclaveDenied) {
		t.Fatalf("OpenEnclave err = %v, want ErrEnclaveDenied", err)
	}
	if got := d.FreePages(); got != 23936 {
		t.Fatalf("denied enclave leaked pages: free = %d", got)
	}
	if got := d.Package().EnclaveCount(); got != 0 {
		t.Fatalf("denied enclave not destroyed: count = %d", got)
	}
}

func TestEnclaveWithinLimitAllowed(t *testing.T) {
	d := newDriver(t)
	if err := d.IoctlSetLimit("/kubepods/ok", 500); err != nil {
		t.Fatal(err)
	}
	e, err := d.OpenEnclave(1, "/kubepods/ok", 500)
	if err != nil {
		t.Fatalf("enclave exactly at limit denied: %v", err)
	}
	if e.State() != sgx.EnclaveInitialized {
		t.Fatalf("state = %v", e.State())
	}
	// A second enclave in the same pod pushing past the limit is denied:
	// the check counts pages per cgroup, not per enclave.
	if _, err := d.OpenEnclave(2, "/kubepods/ok", 1); !errors.Is(err, ErrEnclaveDenied) {
		t.Fatalf("cumulative over-limit err = %v, want ErrEnclaveDenied", err)
	}
	_ = e.Destroy()
}

func TestNoLimitRegisteredAllowsEnclave(t *testing.T) {
	d := newDriver(t)
	e, err := d.OpenEnclave(1, "/system/hostproc", 100)
	if err != nil {
		t.Fatalf("enclave without registered limit should be allowed: %v", err)
	}
	_ = e.Destroy()
}

func TestEnforcementDisabled(t *testing.T) {
	d := newDriver(t, WithoutEnforcement())
	if d.Enforcing() {
		t.Fatal("Enforcing() = true with WithoutEnforcement")
	}
	if err := d.IoctlSetLimit("/kubepods/mal", 1); err != nil {
		t.Fatal(err)
	}
	// Limits disabled: the malicious allocation sails through (§VI-F
	// "limits disabled" runs).
	e, err := d.OpenEnclave(1, "/kubepods/mal", 11968)
	if err != nil {
		t.Fatalf("OpenEnclave with enforcement off = %v", err)
	}
	_ = e.Destroy()
}

func TestOpenEnclaveEPCExhaustion(t *testing.T) {
	d := newDriver(t)
	e, err := d.OpenEnclave(1, "/kubepods/big", 23936)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.OpenEnclave(2, "/kubepods/small", 1); !errors.Is(err, sgx.ErrEPCExhausted) {
		t.Fatalf("err = %v, want ErrEPCExhausted", err)
	}
	_ = e.Destroy()
	if got := d.FreePages(); got != 23936 {
		t.Fatalf("free after destroy = %d", got)
	}
}

func TestOpenEnclaveNegativePages(t *testing.T) {
	d := newDriver(t)
	if _, err := d.OpenEnclave(1, "/x", -5); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("err = %v, want ErrInvalidArgument", err)
	}
}

// Property: for any sequence of open/destroy pairs within capacity, free
// pages always equals total minus the sum of live enclave pages.
func TestFreePagesInvariantProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		d := New(sgx.NewPackage(sgx.DefaultGeometry()))
		var live []*sgx.Enclave
		var livePages int64
		for i, s := range sizes {
			n := int64(s % 4096)
			e, err := d.OpenEnclave(i+1, "cg", n)
			if err != nil {
				// Exhaustion is acceptable; invariant must still hold.
				continue
			}
			live = append(live, e)
			livePages += n
			if d.FreePages() != d.TotalEPCPages()-livePages {
				return false
			}
		}
		for _, e := range live {
			n := e.Pages()
			if err := e.Destroy(); err != nil {
				return false
			}
			livePages -= n
			if d.FreePages() != d.TotalEPCPages()-livePages {
				return false
			}
		}
		return d.FreePages() == d.TotalEPCPages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
