package sgx

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSGX2Capability(t *testing.T) {
	p1 := NewPackage(DefaultGeometry())
	if p1.SGX2() {
		t.Fatal("SGX 1 package reports SGX 2")
	}
	p2 := NewPackage(DefaultGeometry(), WithSGX2())
	if !p2.SGX2() {
		t.Fatal("WithSGX2 not applied")
	}
}

func TestAugmentRequiresSGX2(t *testing.T) {
	p := NewPackage(DefaultGeometry())
	e := p.CreateEnclave(1, "cg")
	if err := e.AddPages(10); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	// SGX 1: no dynamic allocation after EINIT.
	if err := e.AugmentPages(5); !errors.Is(err, ErrSGX1Only) {
		t.Fatalf("AugmentPages on SGX1 err = %v, want ErrSGX1Only", err)
	}
	if _, err := e.TrimPages(5); !errors.Is(err, ErrSGX1Only) {
		t.Fatalf("TrimPages on SGX1 err = %v, want ErrSGX1Only", err)
	}
}

func TestAugmentAndTrimLifecycle(t *testing.T) {
	p := NewPackage(DefaultGeometry(), WithSGX2())
	e := p.CreateEnclave(1, "cg")
	// EAUG before EINIT is a lifecycle error even on SGX 2.
	if err := e.AugmentPages(1); !errors.Is(err, ErrEnclaveState) {
		t.Fatalf("pre-init EAUG err = %v", err)
	}
	if _, err := e.TrimPages(1); !errors.Is(err, ErrEnclaveState) {
		t.Fatalf("pre-init trim err = %v", err)
	}
	if err := e.AddPages(100); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if err := e.AugmentPages(50); err != nil {
		t.Fatalf("EAUG failed: %v", err)
	}
	if got := e.Pages(); got != 150 {
		t.Fatalf("pages = %d, want 150", got)
	}
	if got := p.committed; got != 150 {
		t.Fatalf("committed = %d", got)
	}
	// Trim more than held: clamps.
	released, err := e.TrimPages(1000)
	if err != nil || released != 150 {
		t.Fatalf("TrimPages = %d, %v; want 150", released, err)
	}
	if got := p.FreePages(); got != p.Geometry().UsablePages() {
		t.Fatalf("free = %d after full trim", got)
	}
	if err := e.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := e.AugmentPages(1); !errors.Is(err, ErrEnclaveDestroyed) {
		t.Fatalf("EAUG after destroy err = %v", err)
	}
	if _, err := e.TrimPages(1); !errors.Is(err, ErrEnclaveDestroyed) {
		t.Fatalf("trim after destroy err = %v", err)
	}
}

func TestAugmentNegative(t *testing.T) {
	p := NewPackage(DefaultGeometry(), WithSGX2())
	e := p.CreateEnclave(1, "cg")
	if err := e.AddPages(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if err := e.AugmentPages(-1); !errors.Is(err, ErrEnclaveState) {
		t.Fatalf("negative EAUG err = %v", err)
	}
	if _, err := e.TrimPages(-1); !errors.Is(err, ErrEnclaveState) {
		t.Fatalf("negative trim err = %v", err)
	}
}

func TestAugmentRespectsEPCCapacity(t *testing.T) {
	// Without overcommit, dynamic growth hits the usable-EPC wall too.
	p := NewPackage(DefaultGeometry(), WithSGX2())
	e := p.CreateEnclave(1, "cg")
	if err := e.AddPages(23000); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if err := e.AugmentPages(936); err != nil {
		t.Fatalf("EAUG within capacity failed: %v", err)
	}
	if err := e.AugmentPages(1); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("EAUG past capacity err = %v", err)
	}
}

// Property: any interleaving of EAUG/trim keeps package accounting
// balanced.
func TestDynamicAccountingProperty(t *testing.T) {
	f := func(ops []int16) bool {
		p := NewPackage(DefaultGeometry(), WithSGX2(), WithOvercommit())
		e := p.CreateEnclave(1, "cg")
		if err := e.AddPages(100); err != nil {
			return false
		}
		if err := e.Init(); err != nil {
			return false
		}
		var held int64 = 100
		for _, op := range ops {
			n := int64(op)
			if n >= 0 {
				if err := e.AugmentPages(n % 1000); err != nil {
					return false
				}
				held += n % 1000
			} else {
				m := (-n) % 1000
				released, err := e.TrimPages(m)
				if err != nil {
					return false
				}
				want := m
				if want > held {
					want = held
				}
				if released != want {
					return false
				}
				held -= released
			}
			if e.Pages() != held || p.committed != held {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEnclavePagesConcurrentReaders: the per-pod and per-process page
// totals are read by the metrics probe and the driver's limit check while
// enclaves grow and shrink (EDMM, §VI-G) on other goroutines. The totals
// move inside the same critical section as the package's commitment, so a
// reader sees an enclave's pages either before or after an operation,
// never torn between the two, and (run it under -race) never reads what
// an enclave operation is writing.
func TestEnclavePagesConcurrentReaders(t *testing.T) {
	const base, step, rounds = 100, 40, 2000
	p := NewPackage(DefaultGeometry(), WithSGX2())
	e := p.CreateEnclave(7, "/kubepods/podA")
	if err := e.AddPages(base); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < rounds; i++ {
			if err := e.AugmentPages(step); err != nil {
				t.Error(err)
				return
			}
			if n, err := e.TrimPages(step); err != nil || n != step {
				t.Errorf("TrimPages = %d, %v; want %d", n, err, step)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for !done.Load() {
			for _, got := range [...]int64{p.PagesForCgroup("/kubepods/podA"), p.PagesForPID(7)} {
				if got != base && got != base+step {
					t.Errorf("a reader saw %d pages, want %d or %d", got, base, base+step)
					return
				}
			}
		}
	}()
	wg.Wait()
	if err := e.Destroy(); err != nil {
		t.Fatal(err)
	}
	if a, b := p.PagesForCgroup("/kubepods/podA"), p.PagesForPID(7); a != 0 || b != 0 || len(p.byCgroup) != 0 || len(p.byPID) != 0 {
		t.Fatalf("after destroy: cgroup %d, pid %d pages, %d + %d owner totals kept; want none", a, b, len(p.byCgroup), len(p.byPID))
	}
}
