// Package machine models the physical servers of the paper's testbed
// (§VI-A): RAM, CPUs, an optional SGX package with its kernel driver, a
// count of live processes and cgroup bookkeeping.
//
// Workloads (internal/stress) run as simulated processes that allocate
// standard virtual memory from the machine or EPC pages through the
// driver, each in the cgroup record its pod's kubelet handed down; the
// kubelet and the monitoring probes read back per-cgroup usage from here.
package machine

import (
	"errors"
	"fmt"
	"sync"

	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

// Errors returned by machine operations.
var (
	// ErrOutOfMemory is returned when a virtual-memory allocation exceeds
	// the machine's RAM.
	ErrOutOfMemory = errors.New("machine: out of memory")
	// ErrNoSuchProcess is returned for operations on dead or unknown
	// PIDs.
	ErrNoSuchProcess = errors.New("machine: no such process")
	// ErrNoSGX is returned when an SGX operation reaches a machine
	// without an SGX package.
	ErrNoSGX = errors.New("machine: no SGX support")
)

// Machine is one simulated physical host.
type Machine struct {
	name      string
	ramBytes  int64
	cpuMillis int64

	sgxPkg *sgx.Package
	driver *isgx.Driver

	mu sync.Mutex
	// usedRAM is the virtual memory of every live process. Each process's
	// cgroup's VMBytes moves with it, under mu: the collectors read a pod's
	// memory without visiting its processes.
	usedRAM int64
	// live is the number of processes started and not yet killed.
	live    int
	nextPID int
}

// Option configures a Machine.
type Option func(*Machine)

// WithSGX equips the machine with an SGX package of the given geometry and
// attaches a (modified) isgx driver to it. Driver options configure limit
// enforcement. The package pages as the hardware does; preventing
// over-commitment is the orchestrator's job (see package sgx).
func WithSGX(geo sgx.Geometry, driverOpts ...isgx.Option) Option {
	return func(m *Machine) {
		m.sgxPkg = sgx.NewPackage(geo)
		m.driver = isgx.New(m.sgxPkg, driverOpts...)
	}
}

// WithSGX2 equips the machine with an SGX 2 package: like WithSGX, plus
// dynamic EPC memory management (EDMM, §VI-G).
func WithSGX2(geo sgx.Geometry, driverOpts ...isgx.Option) Option {
	return func(m *Machine) {
		m.sgxPkg = sgx.NewPackage(geo, sgx.WithSGX2())
		m.driver = isgx.New(m.sgxPkg, driverOpts...)
	}
}

// New creates a machine with the given name, RAM size and CPU capacity in
// millicores.
func New(name string, ramBytes, cpuMillis int64, opts ...Option) *Machine {
	m := &Machine{
		name:      name,
		ramBytes:  ramBytes,
		cpuMillis: cpuMillis,
		nextPID:   1,
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Name returns the machine's host name.
func (m *Machine) Name() string { return m.name }

// RAMBytes returns the installed RAM.
func (m *Machine) RAMBytes() int64 { return m.ramBytes }

// CPUMillis returns the CPU capacity in millicores.
func (m *Machine) CPUMillis() int64 { return m.cpuMillis }

// HasSGX reports whether the machine has an SGX package and driver — the
// check the device plugin performs ("checks for the availability of the
// Intel SGX kernel module on each node", §V-A).
func (m *Machine) HasSGX() bool { return m.driver != nil }

// Driver returns the machine's isgx driver, or nil on non-SGX machines.
func (m *Machine) Driver() *isgx.Driver { return m.driver }

// SGX returns the machine's SGX package, or nil.
func (m *Machine) SGX() *sgx.Package { return m.sgxPkg }

// RAMUsed returns the total virtual memory currently allocated.
func (m *Machine) RAMUsed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.usedRAM
}

// Process is a simulated OS process belonging to a pod (cgroup).
type Process struct {
	PID int

	cg       *cgroup.Cgroup
	m        *Machine
	mu       sync.Mutex
	vmBytes  int64
	enclaves []*sgx.Enclave
	// first is enclaves' first backing array: a workload opens one.
	first [1]*sgx.Enclave
	dead  bool
}

// Start forks p, a zero Process its caller keeps, on m in the cgroup cg.
func (p *Process) Start(m *Machine, cg *cgroup.Cgroup) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p.PID, p.cg, p.m = m.nextPID, cg, m
	p.enclaves = p.first[:0]
	m.nextPID++
	m.live++
}

// ProcessCount returns the number of live processes.
func (m *Machine) ProcessCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// AllocVM allocates standard virtual memory to the process, failing with
// ErrOutOfMemory if the machine's RAM would be exceeded.
func (p *Process) AllocVM(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("machine: negative allocation %d", bytes)
	}
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return fmt.Errorf("%w: pid %d", ErrNoSuchProcess, p.PID)
	}
	if p.m.usedRAM+bytes > p.m.ramBytes {
		return fmt.Errorf("%w: used %d + %d > %d", ErrOutOfMemory,
			p.m.usedRAM, bytes, p.m.ramBytes)
	}
	p.m.chargeLocked(p.cg, bytes)
	p.vmBytes += bytes
	return nil
}

// OpenEnclave builds and initializes an enclave through the machine's
// driver, charging the pages to this process's cgroup.
func (p *Process) OpenEnclave(pages int64) (*sgx.Enclave, error) {
	if p.m.driver == nil {
		return nil, fmt.Errorf("%w: machine %s", ErrNoSGX, p.m.name)
	}
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: pid %d", ErrNoSuchProcess, p.PID)
	}
	p.mu.Unlock()
	e, err := p.m.driver.OpenEnclave(p.cg, pages)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.dead {
		// Killed while the enclave was being built: Kill could not see
		// it, so it is destroyed here.
		p.mu.Unlock()
		_ = e.Destroy()
		return nil, fmt.Errorf("%w: pid %d", ErrNoSuchProcess, p.PID)
	}
	p.enclaves = append(p.enclaves, e)
	p.mu.Unlock()
	return e, nil
}

// Kill terminates the process, releasing its virtual memory and destroying
// its enclaves. Killing an already dead process is a no-op.
func (p *Process) Kill() {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	vm := p.vmBytes
	p.vmBytes = 0
	enclaves := p.enclaves
	p.enclaves = nil
	p.mu.Unlock()

	for _, e := range enclaves {
		// Destroy can only fail on double-destroy, which Kill's dead
		// flag already excludes.
		_ = e.Destroy()
	}

	p.m.mu.Lock()
	p.m.chargeLocked(p.cg, -vm)
	p.m.live--
	p.m.mu.Unlock()
}

// chargeLocked moves the machine's and the cgroup's memory by bytes.
// Caller must hold m.mu.
func (m *Machine) chargeLocked(cg *cgroup.Cgroup, bytes int64) {
	m.usedRAM += bytes
	cg.VMBytes += bytes
}

// Usage returns the virtual memory of the cgroup's live processes and the
// EPC pages its enclaves commit — the per-pod figures the
// Heapster-equivalent collector and the SGX metrics probe scrape (§V-C).
// Both totals are kept as processes allocate, free and die, so this is
// two reads. Non-SGX machines report zero pages.
func (m *Machine) Usage(cg *cgroup.Cgroup) (vmBytes, epcPages int64) {
	m.mu.Lock()
	vmBytes = cg.VMBytes
	m.mu.Unlock()
	if m.sgxPkg != nil {
		epcPages = m.sgxPkg.PagesOf(cg)
	}
	return vmBytes, epcPages
}
