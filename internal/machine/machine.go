// Package machine models the physical servers of the paper's testbed
// (§VI-A): RAM, CPUs, an optional SGX package with its kernel driver, a
// process table and cgroup bookkeeping.
//
// Workloads (internal/stress) run as simulated processes that allocate
// standard virtual memory from the machine or EPC pages through the
// driver; the kubelet and the monitoring probes read back per-cgroup usage
// from here.
package machine

import (
	"errors"
	"fmt"
	"sync"

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

	mu      sync.Mutex
	usedRAM int64
	// vmByCgroup is usedRAM by cgroup, moved with it: the collectors read a
	// pod's memory without visiting its processes. A cgroup at zero has no
	// entry.
	vmByCgroup map[string]int64
	procs      map[int]*Process
	nextPID    int
}

// Option configures a Machine.
type Option func(*Machine)

// WithSGX equips the machine with an SGX package of the given geometry and
// attaches a (modified) isgx driver to it. Driver options configure limit
// enforcement.
//
// The package is created with paging enabled: real SGX 1 hardware and the
// kernel driver support EPC over-commitment via the paging mechanism
// (§II), so enclave allocation beyond the usable EPC succeeds but is slow.
// Preventing over-commitment is the orchestrator's job (§V-A), not the
// hardware's.
func WithSGX(geo sgx.Geometry, driverOpts ...isgx.Option) Option {
	return func(m *Machine) {
		m.sgxPkg = sgx.NewPackage(geo, sgx.WithOvercommit())
		m.driver = isgx.New(m.sgxPkg, driverOpts...)
	}
}

// WithSGX2 equips the machine with an SGX 2 package: like WithSGX, plus
// dynamic EPC memory management (EDMM, §VI-G).
func WithSGX2(geo sgx.Geometry, driverOpts ...isgx.Option) Option {
	return func(m *Machine) {
		m.sgxPkg = sgx.NewPackage(geo, sgx.WithOvercommit(), sgx.WithSGX2())
		m.driver = isgx.New(m.sgxPkg, driverOpts...)
	}
}

// New creates a machine with the given name, RAM size and CPU capacity in
// millicores.
func New(name string, ramBytes, cpuMillis int64, opts ...Option) *Machine {
	m := &Machine{
		name:       name,
		ramBytes:   ramBytes,
		cpuMillis:  cpuMillis,
		vmByCgroup: make(map[string]int64),
		procs:      make(map[int]*Process),
		nextPID:    1,
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
	PID        int
	CgroupPath string

	m        *Machine
	mu       sync.Mutex
	vmBytes  int64
	enclaves []*sgx.Enclave
	dead     bool
}

// StartProcess forks a new process inside the given cgroup.
func (m *Machine) StartProcess(cgroupPath string) *Process {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := &Process{PID: m.nextPID, CgroupPath: cgroupPath, m: m}
	m.nextPID++
	m.procs[p.PID] = p
	return p
}

// Process returns the live process with the given PID.
func (m *Machine) Process(pid int) (*Process, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: pid %d", ErrNoSuchProcess, pid)
	}
	return p, nil
}

// ProcessCount returns the number of live processes.
func (m *Machine) ProcessCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.procs)
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
	p.m.chargeLocked(p.CgroupPath, bytes)
	p.vmBytes += bytes
	return nil
}

// OpenEnclave builds and initializes an enclave through the machine's
// driver, charging the pages to this process and its cgroup.
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
	e, err := p.m.driver.OpenEnclave(p.PID, p.CgroupPath, pages)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
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
	p.m.chargeLocked(p.CgroupPath, -vm)
	delete(p.m.procs, p.PID)
	p.m.mu.Unlock()
}

// chargeLocked moves the machine's and the cgroup's memory by bytes.
// Caller must hold m.mu.
func (m *Machine) chargeLocked(cgroupPath string, bytes int64) {
	m.usedRAM += bytes
	if v := m.vmByCgroup[cgroupPath] + bytes; v > 0 {
		m.vmByCgroup[cgroupPath] = v
	} else {
		delete(m.vmByCgroup, cgroupPath)
	}
}

// VMBytesByCgroup returns the virtual memory of all live processes in the
// given cgroup — the per-pod figure the Heapster-equivalent collector
// scrapes (§V-C). The total is kept as processes allocate, free and die,
// so this is a lookup.
func (m *Machine) VMBytesByCgroup(cgroupPath string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.vmByCgroup[cgroupPath]
}

// EPCPagesByCgroup returns the EPC pages of the given cgroup via the driver —
// the per-pod figure the SGX metrics probe scrapes (§V-C). Non-SGX
// machines report zero.
func (m *Machine) EPCPagesByCgroup(cgroupPath string) int64 {
	if m.driver == nil {
		return 0
	}
	return m.driver.PagesForCgroup(cgroupPath)
}
