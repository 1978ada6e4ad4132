package machine

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

// spawn starts a process of its own in cg on m.
func spawn(m *Machine, cg *cgroup.Cgroup) *Process {
	p := new(Process)
	p.Start(m, cg)
	return p
}

func TestMachineBasics(t *testing.T) {
	m := New("node-1", 8*resource.GiB, 4000)
	if m.Name() != "node-1" || m.RAMBytes() != 8*resource.GiB || m.CPUMillis() != 4000 {
		t.Fatalf("basic accessors wrong: %s %d %d", m.Name(), m.RAMBytes(), m.CPUMillis())
	}
	if m.HasSGX() {
		t.Fatal("plain machine reports SGX")
	}
	if m.Driver() != nil || m.SGX() != nil {
		t.Fatal("plain machine has driver/package")
	}
}

func TestSGXMachine(t *testing.T) {
	m := New("sgx-1", 8*resource.GiB, 8000, WithSGX(sgx.DefaultGeometry()))
	if !m.HasSGX() {
		t.Fatal("SGX machine reports no SGX")
	}
	if got := m.Driver().TotalEPCPages(); got != 23936 {
		t.Fatalf("TotalEPCPages = %d", got)
	}
	if !m.Driver().Enforcing() {
		t.Fatal("driver should enforce by default")
	}
	m2 := New("sgx-2", 8*resource.GiB, 8000,
		WithSGX(sgx.DefaultGeometry(), isgx.WithoutEnforcement()))
	if m2.Driver().Enforcing() {
		t.Fatal("WithoutEnforcement not propagated")
	}
}

func TestVMAllocationAndOOM(t *testing.T) {
	m := New("n", 1000, 1000)
	p := spawn(m, &cgroup.Cgroup{Name: "a"})
	if err := p.AllocVM(600); err != nil {
		t.Fatal(err)
	}
	if err := p.AllocVM(500); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-RAM alloc err = %v, want ErrOutOfMemory", err)
	}
	if got := m.RAMUsed(); got != 600 {
		t.Fatalf("RAMUsed = %d, want 600", got)
	}
	p.FreeVM(100)
	if got := p.vmBytes; got != 500 {
		t.Fatalf("VMBytes = %d, want 500", got)
	}
	// Freeing more than allocated clamps.
	p.FreeVM(10000)
	if got := m.RAMUsed(); got != 0 {
		t.Fatalf("RAMUsed after over-free = %d, want 0", got)
	}
	if err := p.AllocVM(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestProcessLifecycle(t *testing.T) {
	m := New("n", 1000, 1000)
	p := spawn(m, &cgroup.Cgroup{Name: "a"})
	if n := m.ProcessCount(); n != 1 {
		t.Fatalf("live processes = %d, want 1", n)
	}
	if err := p.AllocVM(500); err != nil {
		t.Fatal(err)
	}
	p.Kill()
	if n := m.ProcessCount(); n != 0 {
		t.Fatalf("live processes after kill = %d, want 0", n)
	}
	if got := m.RAMUsed(); got != 0 {
		t.Fatalf("kill leaked RAM: %d", got)
	}
	if err := p.AllocVM(1); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatalf("alloc on dead process err = %v", err)
	}
	p.Kill() // idempotent
	if n := m.ProcessCount(); n != 0 {
		t.Fatalf("live processes after a second kill = %d, want 0", n)
	}
}

func TestKillDestroysEnclaves(t *testing.T) {
	m := New("sgx", 8*resource.GiB, 8000, WithSGX(sgx.DefaultGeometry()))
	p := spawn(m, &cgroup.Cgroup{Name: "a"})
	if _, err := p.OpenEnclave(5000); err != nil {
		t.Fatal(err)
	}
	if got := m.Driver().FreePages(); got != 23936-5000 {
		t.Fatalf("FreePages = %d", got)
	}
	p.Kill()
	if got := m.Driver().FreePages(); got != 23936 {
		t.Fatalf("kill leaked EPC pages: free = %d", got)
	}
}

func TestOpenEnclaveOnNonSGXMachine(t *testing.T) {
	m := New("plain", resource.GiB, 1000)
	p := spawn(m, &cgroup.Cgroup{Name: "a"})
	if _, err := p.OpenEnclave(10); !errors.Is(err, ErrNoSGX) {
		t.Fatalf("err = %v, want ErrNoSGX", err)
	}
}

func TestUsageByCgroup(t *testing.T) {
	m := New("sgx", 8*resource.GiB, 8000, WithSGX(sgx.DefaultGeometry()))
	podA, podB := &cgroup.Cgroup{Name: "podA"}, &cgroup.Cgroup{Name: "podB"}
	a1 := spawn(m, podA)
	a2 := spawn(m, podA)
	b := spawn(m, podB)
	if err := a1.AllocVM(100); err != nil {
		t.Fatal(err)
	}
	if err := a2.AllocVM(200); err != nil {
		t.Fatal(err)
	}
	if err := b.AllocVM(400); err != nil {
		t.Fatal(err)
	}
	if _, err := a1.OpenEnclave(50); err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenEnclave(70); err != nil {
		t.Fatal(err)
	}
	if vm, pages := m.Usage(podA); vm != 300 || pages != 50 {
		t.Fatalf("Usage(A) = %d B, %d pages; want 300, 50", vm, pages)
	}
	if vm, pages := m.Usage(podB); vm != 400 || pages != 70 {
		t.Fatalf("Usage(B) = %d B, %d pages; want 400, 70", vm, pages)
	}
	plain := New("p", resource.GiB, 1000)
	cg := &cgroup.Cgroup{Name: "x"}
	if err := spawn(plain, cg).AllocVM(10); err != nil {
		t.Fatal(err)
	}
	if vm, pages := plain.Usage(cg); vm != 10 || pages != 0 {
		t.Fatalf("non-SGX Usage = %d B, %d pages; want 10, 0", vm, pages)
	}
}

// Property: RAM accounting balances for any alloc/free/kill sequence.
func TestRAMAccountingProperty(t *testing.T) {
	f := func(allocs []uint32) bool {
		m := New("n", 1<<40, 1000)
		var procs []*Process
		var want int64
		cg := &cgroup.Cgroup{Name: "cg"}
		for i, a := range allocs {
			p := spawn(m, cg)
			n := int64(a % (1 << 20))
			if err := p.AllocVM(n); err != nil {
				return false
			}
			want += n
			procs = append(procs, p)
			if i%3 == 0 {
				p.Kill()
				want -= n
			}
		}
		if m.RAMUsed() != want {
			return false
		}
		for _, p := range procs {
			p.Kill()
		}
		return m.RAMUsed() == 0 && cg.VMBytes == 0 && m.ProcessCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FreeVM releases up to bytes of the process's virtual memory, the
// inverse of AllocVM.
func (p *Process) FreeVM(bytes int64) {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if bytes > p.vmBytes {
		bytes = p.vmBytes
	}
	p.vmBytes -= bytes
	p.m.chargeLocked(p.cg, -bytes)
}
