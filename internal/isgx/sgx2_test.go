package isgx

import (
	"errors"
	"strings"
	"testing"

	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

func newSGX2Driver(opts ...Option) *Driver {
	return New(sgx.NewPackage(sgx.DefaultGeometry(), sgx.WithSGX2()), opts...)
}

func TestAugmentWithinLimit(t *testing.T) {
	d := newSGX2Driver()
	cg := &cgroup.Cgroup{Name: "pod"}
	if err := d.IoctlSetLimit(cg, 1000); err != nil {
		t.Fatal(err)
	}
	e, err := d.OpenEnclave(cg, 400)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.IoctlAugmentPages(e, 600); err != nil {
		t.Fatalf("EAUG within limit denied: %v", err)
	}
	if got := d.pkg.PagesOf(cg); got != 1000 {
		t.Fatalf("pages = %d", got)
	}
}

func TestAugmentDeniedOverLimit(t *testing.T) {
	d := newSGX2Driver()
	cg := &cgroup.Cgroup{Name: "pod"}
	if err := d.IoctlSetLimit(cg, 1000); err != nil {
		t.Fatal(err)
	}
	e, err := d.OpenEnclave(cg, 400)
	if err != nil {
		t.Fatal(err)
	}
	// The §VI-G port: dynamic growth past the pod's advertised share is
	// denied just like an over-limit EINIT.
	err = d.IoctlAugmentPages(e, 601)
	if want := "cgroup /kubepods/pod-pod at 400 pages, +601 exceeds limit 1000"; !errors.Is(err, ErrEnclaveDenied) || !strings.Contains(err.Error(), want) {
		t.Fatalf("over-limit EAUG err = %v, want ErrEnclaveDenied: %s", err, want)
	}
	// The enclave keeps its prior pages.
	if got := e.Pages(); got != 400 {
		t.Fatalf("pages after denied EAUG = %d", got)
	}
}

func TestAugmentWithoutEnforcement(t *testing.T) {
	d := newSGX2Driver(WithoutEnforcement())
	cg := &cgroup.Cgroup{Name: "pod"}
	if err := d.IoctlSetLimit(cg, 10); err != nil {
		t.Fatal(err)
	}
	e, err := d.OpenEnclave(cg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.IoctlAugmentPages(e, 10000); err != nil {
		t.Fatalf("EAUG with enforcement off = %v", err)
	}
}

func TestTrimThroughDriver(t *testing.T) {
	d := newSGX2Driver()
	cg := &cgroup.Cgroup{Name: "pod"}
	e, err := d.OpenEnclave(cg, 500)
	if err != nil {
		t.Fatal(err)
	}
	released, err := d.IoctlTrimPages(e, 200)
	if err != nil || released != 200 {
		t.Fatalf("trim = %d, %v", released, err)
	}
	if got := d.FreePages(); got != 23936-300 {
		t.Fatalf("free = %d", got)
	}
	// After trimming, the pod may burst again within its limit.
	if err := d.IoctlSetLimit(cg, 500); err != nil {
		t.Fatal(err)
	}
	if err := d.IoctlAugmentPages(e, 200); err != nil {
		t.Fatalf("re-burst after trim denied: %v", err)
	}
}

func TestSGX2IoctlValidation(t *testing.T) {
	d := newSGX2Driver()
	if err := d.IoctlAugmentPages(nil, 1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("nil enclave err = %v", err)
	}
	e, err := d.OpenEnclave(&cgroup.Cgroup{Name: "pod"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.IoctlAugmentPages(e, -1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative EAUG err = %v", err)
	}
	if _, err := d.IoctlTrimPages(e, -1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative trim err = %v", err)
	}
	if _, err := d.IoctlTrimPages(nil, 1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("nil trim err = %v", err)
	}
}

func TestAugmentOnSGX1Driver(t *testing.T) {
	d := New(sgx.NewPackage(sgx.DefaultGeometry()))
	e, err := d.OpenEnclave(&cgroup.Cgroup{Name: "pod"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.IoctlAugmentPages(e, 1); !errors.Is(err, sgx.ErrSGX1Only) {
		t.Fatalf("EAUG on SGX1 err = %v", err)
	}
}
