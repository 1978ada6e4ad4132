package sgx

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/sgxorch/sgxorch/internal/resource"
)

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	g := DefaultGeometry()
	if got := g.TotalPages(); got != 32768 {
		t.Fatalf("TotalPages = %d, want 32768", got)
	}
	// "a total of 23 936 pages" and "93.5 MiB" (§II).
	if got := g.UsablePages(); got != 23936 {
		t.Fatalf("UsablePages = %d, want 23936", got)
	}
	if got := g.UsableBytes(); got != 93*resource.MiB+512*resource.KiB {
		t.Fatalf("UsableBytes = %d, want 93.5 MiB", got)
	}
}

func TestGeometryScalesProportionally(t *testing.T) {
	cases := []struct {
		sizeMiB     int64
		usablePages int64
	}{
		{32, 32 * 256 * usableNum / usableDen},
		{64, 64 * 256 * usableNum / usableDen},
		{256, 256 * 256 * usableNum / usableDen},
	}
	for _, tc := range cases {
		g := GeometryForSize(tc.sizeMiB * resource.MiB)
		if got := g.UsablePages(); got != tc.usablePages {
			t.Errorf("UsablePages(%d MiB) = %d, want %d", tc.sizeMiB, got, tc.usablePages)
		}
	}
}

func TestEnclaveLifecycle(t *testing.T) {
	p := NewPackage(DefaultGeometry())
	e := p.CreateEnclave(42, "/kubepods/pod-1")
	if e.State() != EnclaveCreated {
		t.Fatalf("state = %v, want created", e.State())
	}
	if err := e.AddPages(100); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if e.State() != EnclaveInitialized {
		t.Fatalf("state = %v, want initialized", e.State())
	}
	// SGX 1: no EADD after EINIT (§V-E).
	if err := e.AddPages(1); !errors.Is(err, ErrEnclaveState) {
		t.Fatalf("AddPages after Init err = %v, want ErrEnclaveState", err)
	}
	if err := e.Init(); !errors.Is(err, ErrEnclaveState) {
		t.Fatalf("double Init err = %v, want ErrEnclaveState", err)
	}
	if err := e.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := e.Destroy(); !errors.Is(err, ErrEnclaveDestroyed) {
		t.Fatalf("double Destroy err = %v, want ErrEnclaveDestroyed", err)
	}
	if got := p.committed; got != 0 {
		t.Fatalf("committed pages after destroy = %d, want 0", got)
	}
	if got := p.EnclaveCount(); got != 0 {
		t.Fatalf("EnclaveCount after destroy = %d, want 0", got)
	}
}

func TestAddPagesNegative(t *testing.T) {
	p := NewPackage(DefaultGeometry())
	e := p.CreateEnclave(1, "c")
	if err := e.AddPages(-1); !errors.Is(err, ErrEnclaveState) {
		t.Fatalf("AddPages(-1) err = %v", err)
	}
}

func TestEPCExhaustionWithoutOvercommit(t *testing.T) {
	p := NewPackage(DefaultGeometry())
	a := p.CreateEnclave(1, "a")
	if err := a.AddPages(23936); err != nil {
		t.Fatalf("filling EPC exactly should work: %v", err)
	}
	b := p.CreateEnclave(2, "b")
	if err := b.AddPages(1); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("over-commit err = %v, want ErrEPCExhausted", err)
	}
	if got := p.FreePages(); got != 0 {
		t.Fatalf("FreePages = %d, want 0", got)
	}
	if err := a.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPages(1); err != nil {
		t.Fatalf("allocation after release failed: %v", err)
	}
}

func TestOvercommitAndSlowdown(t *testing.T) {
	p := NewPackage(DefaultGeometry(), WithOvercommit())
	e := p.CreateEnclave(1, "a")
	if err := e.AddPages(2 * 23936); err != nil {
		t.Fatalf("overcommit with paging enabled failed: %v", err)
	}
	if got := p.ResidentFraction(); got != 0.5 {
		t.Fatalf("ResidentFraction = %v, want 0.5", got)
	}
	want := 1 + (MaxPagingSlowdown-1)*0.5
	if got := p.SlowdownFactor(); got != want {
		t.Fatalf("SlowdownFactor = %v, want %v", got, want)
	}
	if got := p.FreePages(); got != 0 {
		t.Fatalf("FreePages under overcommit = %d, want 0", got)
	}
}

func TestNoOvercommitSlowdownIsOne(t *testing.T) {
	p := NewPackage(DefaultGeometry())
	e := p.CreateEnclave(1, "a")
	if err := e.AddPages(1000); err != nil {
		t.Fatal(err)
	}
	if got := p.SlowdownFactor(); got != 1 {
		t.Fatalf("SlowdownFactor = %v, want 1", got)
	}
}

func TestPagesForPIDAndCgroup(t *testing.T) {
	p := NewPackage(DefaultGeometry())
	e1 := p.CreateEnclave(10, "/kubepods/podA")
	e2 := p.CreateEnclave(10, "/kubepods/podA")
	e3 := p.CreateEnclave(20, "/kubepods/podB")
	for _, pair := range []struct {
		e *Enclave
		n int64
	}{{e1, 100}, {e2, 50}, {e3, 30}} {
		if err := pair.e.AddPages(pair.n); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.PagesForPID(10); got != 150 {
		t.Fatalf("PagesForPID(10) = %d, want 150", got)
	}
	if got := p.PagesForPID(99); got != 0 {
		t.Fatalf("PagesForPID(99) = %d, want 0", got)
	}
	if got := p.PagesForCgroup("/kubepods/podA"); got != 150 {
		t.Fatalf("PagesForCgroup(podA) = %d, want 150", got)
	}
	if got := p.PagesForCgroup("/kubepods/podB"); got != 30 {
		t.Fatalf("PagesForCgroup(podB) = %d, want 30", got)
	}
}

func TestCostModelFig6Trends(t *testing.T) {
	m := DefaultCostModel()
	usable := DefaultGeometry().UsableBytes()

	// PSW startup alone for a zero-byte enclave.
	if got := m.StartupLatency(0, usable); got != 100*time.Millisecond {
		t.Fatalf("StartupLatency(0) = %v, want 100ms", got)
	}

	// Below the knee: 1.6 ms/MiB.
	got32 := m.AllocLatency(32*resource.MiB, usable)
	if want := 32 * 1600 * time.Microsecond; got32 != want {
		t.Fatalf("AllocLatency(32MiB) = %v, want %v", got32, want)
	}

	// Exactly at the knee (93.5 MiB): still the cheap slope.
	gotKnee := m.AllocLatency(usable, usable)
	if want := time.Duration(93.5 * 1600 * float64(time.Microsecond)); gotKnee != want {
		t.Fatalf("AllocLatency(93.5MiB) = %v, want %v", gotKnee, want)
	}

	// Above the knee: fixed 200 ms plus 4.5 ms/MiB for the excess.
	got128 := m.AllocLatency(128*resource.MiB, usable)
	want128 := gotKnee + 200*time.Millisecond +
		time.Duration(34.5*4500*float64(time.Microsecond))
	if got128 != want128 {
		t.Fatalf("AllocLatency(128MiB) = %v, want %v", got128, want128)
	}

	// Total at 128 MiB lands near the paper's ~600 ms reading.
	total := m.StartupLatency(128*resource.MiB, usable)
	if total < 580*time.Millisecond || total > 620*time.Millisecond {
		t.Fatalf("StartupLatency(128MiB) = %v, want ~600ms", total)
	}

	// Standard jobs: "less than 1 ms".
	if m.StandardStartup >= time.Millisecond {
		t.Fatalf("StandardStartup = %v, want < 1ms", m.StandardStartup)
	}
}

func TestCostModelMonotoneInAllocation(t *testing.T) {
	m := DefaultCostModel()
	usable := DefaultGeometry().UsableBytes()
	f := func(a, b uint32) bool {
		x, y := int64(a)%(256*resource.MiB), int64(b)%(256*resource.MiB)
		if x > y {
			x, y = y, x
		}
		return m.AllocLatency(x, usable) <= m.AllocLatency(y, usable)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: committed pages accounting never leaks across create/destroy
// sequences.
func TestCommitReleaseAccountingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		p := NewPackage(DefaultGeometry(), WithOvercommit())
		var live []*Enclave
		var want int64
		for i, s := range sizes {
			e := p.CreateEnclave(i, "cg")
			n := int64(s % 1000)
			if err := e.AddPages(n); err != nil {
				return false
			}
			want += n
			live = append(live, e)
		}
		if p.committed != want {
			return false
		}
		for _, e := range live {
			if err := e.Destroy(); err != nil {
				return false
			}
		}
		return p.committed == 0 && p.EnclaveCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
