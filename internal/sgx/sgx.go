// Package sgx is a behavioural model of an Intel SGX processor package:
// the Enclave Page Cache (EPC), the enclave lifecycle, and the performance
// characteristics the paper measures (§II, §VI-D).
//
// The model substitutes for the real SGX machines of the paper's testbed
// (two i7-6700 with 128 MiB PRM). The rest of the stack — driver, device
// plugin, kubelet, scheduler — only observes page counters and latencies,
// and this package reproduces exactly the counters and latencies the paper
// reports, so scheduling behaviour is preserved.
package sgx

import (
	"errors"
	"fmt"
	"sync"

	"github.com/sgxorch/sgxorch/internal/resource"
)

// Errors returned by EPC operations.
var (
	// ErrEPCExhausted is returned when an allocation would exceed the
	// usable EPC and over-commitment is disabled. The paper's stack
	// "deliberately prevent[s] over-commitment of the EPC" (§V-A).
	ErrEPCExhausted = errors.New("sgx: EPC exhausted")
	// ErrEnclaveState is returned on lifecycle misuse (e.g. adding pages
	// after initialization — SGX 1 commits all memory before EINIT, §II).
	ErrEnclaveState = errors.New("sgx: invalid enclave state")
	// ErrEnclaveDestroyed is returned when operating on a destroyed
	// enclave.
	ErrEnclaveDestroyed = errors.New("sgx: enclave destroyed")
)

// Geometry describes the protected-memory shape of one SGX package.
//
// Current hardware reserves up to 128 MiB of Processor Reserved Memory, of
// which "only 93.5 MiB ... can effectively be used by applications (for a
// total of 23 936 pages), while the rest is used for storing SGX metadata"
// (§II). We keep the same metadata proportion for the hypothetical SGX 2
// sizes evaluated in Fig. 7 (32, 64, 256 MiB).
type Geometry struct {
	// TotalBytes is the PRM size configured via UEFI (power of two in
	// practice, but any positive value is accepted).
	TotalBytes int64
}

// Usable-to-total ratio of current hardware: 23 936 / 32 768 pages.
const (
	usableNum = 23936
	usableDen = 32768
)

// DefaultGeometry is the 128 MiB PRM of the paper's testbed (§VI-A).
func DefaultGeometry() Geometry { return Geometry{TotalBytes: 128 * resource.MiB} }

// GeometryForSize returns a Geometry with the given PRM size in bytes.
func GeometryForSize(totalBytes int64) Geometry { return Geometry{TotalBytes: totalBytes} }

// TotalPages returns the total number of 4 KiB EPC pages, metadata
// included.
func (g Geometry) TotalPages() int64 { return g.TotalBytes / resource.EPCPageSize }

// UsablePages returns the number of pages available to applications. For
// the default 128 MiB geometry this is exactly 23 936 (§II).
func (g Geometry) UsablePages() int64 { return g.TotalPages() * usableNum / usableDen }

// UsableBytes returns the application-usable EPC size in bytes (93.5 MiB
// for the default geometry).
func (g Geometry) UsableBytes() int64 { return resource.BytesForPages(g.UsablePages()) }

// EnclaveState tracks the SGX 1 lifecycle: ECREATE → EADD* → EINIT →
// (running) → destroy.
type EnclaveState int

// Enclave lifecycle states.
const (
	EnclaveCreated EnclaveState = iota + 1
	EnclaveInitialized
	EnclaveDestroyedState
)

// String renders the state for diagnostics.
func (s EnclaveState) String() string {
	switch s {
	case EnclaveCreated:
		return "created"
	case EnclaveInitialized:
		return "initialized"
	case EnclaveDestroyedState:
		return "destroyed"
	default:
		return fmt.Sprintf("EnclaveState(%d)", int(s))
	}
}

// Enclave is one protected execution context owning a number of committed
// EPC pages.
type Enclave struct {
	ID         uint64
	PID        int    // owning process, for the per-process page count (§V-E)
	CgroupPath string // pod identity, for limit enforcement (§V-D)

	mu    sync.Mutex
	pkg   *Package
	pages int64
	state EnclaveState
}

// Pages returns the number of EPC pages committed to the enclave.
func (e *Enclave) Pages() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pages
}

// State returns the current lifecycle state.
func (e *Enclave) State() EnclaveState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// AddPages commits n more EPC pages to the enclave (EADD). In SGX 1 this
// is only legal before EINIT: "enclaves must allocate all chunks of
// protected memory that they plan to use at initialization time" (§V-E).
func (e *Enclave) AddPages(n int64) error {
	if n < 0 {
		return fmt.Errorf("%w: negative page count %d", ErrEnclaveState, n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case EnclaveDestroyedState:
		return ErrEnclaveDestroyed
	case EnclaveInitialized:
		return fmt.Errorf("%w: EADD after EINIT (SGX 1 forbids dynamic allocation)", ErrEnclaveState)
	}
	if err := e.pkg.commit(e, n); err != nil {
		return err
	}
	e.pages += n
	return nil
}

// Init transitions the enclave to the initialized state (EINIT). The
// launch-token / limit-enforcement checks live in the driver (§V-E), which
// calls its hook before invoking Init.
func (e *Enclave) Init() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case EnclaveDestroyedState:
		return ErrEnclaveDestroyed
	case EnclaveInitialized:
		return fmt.Errorf("%w: double EINIT", ErrEnclaveState)
	}
	e.state = EnclaveInitialized
	return nil
}

// Destroy releases the enclave's pages back to the EPC. Destroying twice
// is an error.
func (e *Enclave) Destroy() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == EnclaveDestroyedState {
		return ErrEnclaveDestroyed
	}
	e.pkg.release(e, e.pages)
	e.pkg.forget(e.ID)
	e.pages = 0
	e.state = EnclaveDestroyedState
	return nil
}

// Package models one SGX-capable CPU package and its EPC.
type Package struct {
	geo Geometry
	// allowOvercommit enables the paging mechanism (§II). The
	// orchestrator stack keeps it disabled on purpose (§V-A), but the
	// model implements it so the 1000× penalty regime is testable.
	allowOvercommit bool
	// sgx2 enables dynamic EPC memory management (EDMM, §VI-G).
	sgx2 bool

	mu        sync.Mutex
	enclaves  map[uint64]*Enclave
	committed int64 // total committed pages across enclaves
	// The same pages by owner, moved with committed: the driver's limit
	// check and the metrics probe read a pod's (or a process's) total
	// without visiting its enclaves. An owner at zero has no entry.
	byCgroup map[string]int64
	byPID    map[int]int64
	nextID   uint64
}

// Option configures a Package.
type Option func(*Package)

// WithOvercommit enables EPC over-commitment via paging.
func WithOvercommit() Option {
	return func(p *Package) { p.allowOvercommit = true }
}

// NewPackage creates an SGX package with the given geometry.
func NewPackage(geo Geometry, opts ...Option) *Package {
	p := &Package{
		geo:      geo,
		enclaves: make(map[uint64]*Enclave),
		byCgroup: make(map[string]int64),
		byPID:    make(map[int]int64),
		nextID:   1,
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Geometry returns the package's EPC geometry.
func (p *Package) Geometry() Geometry { return p.geo }

// CreateEnclave performs ECREATE for a process. The returned enclave holds
// no pages yet.
func (p *Package) CreateEnclave(pid int, cgroupPath string) *Enclave {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := &Enclave{
		ID:         p.nextID,
		PID:        pid,
		CgroupPath: cgroupPath,
		pkg:        p,
		state:      EnclaveCreated,
	}
	p.nextID++
	p.enclaves[e.ID] = e
	return e
}

// commit reserves n pages of EPC for enclave e, charging them to its
// process and cgroup in the same critical section: a reader never sees
// pages committed but not yet owned.
func (p *Package) commit(e *Enclave, n int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.allowOvercommit && p.committed+n > p.geo.UsablePages() {
		return fmt.Errorf("%w: committed %d + %d > usable %d pages",
			ErrEPCExhausted, p.committed, n, p.geo.UsablePages())
	}
	p.committed += n
	addTotal(p.byCgroup, e.CgroupPath, n)
	addTotal(p.byPID, e.PID, n)
	return nil
}

// release returns n of enclave e's pages to the EPC.
func (p *Package) release(e *Enclave, n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.committed -= n
	if p.committed < 0 {
		p.committed = 0
	}
	addTotal(p.byCgroup, e.CgroupPath, -n)
	addTotal(p.byPID, e.PID, -n)
}

// addTotal moves an owner's page total by n, dropping the owner once it
// holds nothing.
func addTotal[K comparable](totals map[K]int64, owner K, n int64) {
	if v := totals[owner] + n; v > 0 {
		totals[owner] = v
	} else {
		delete(totals, owner)
	}
}

func (p *Package) forget(id uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.enclaves, id)
}

// FreePages returns the number of usable pages not committed to any
// enclave; with paging enabled it never goes below zero. This value backs
// the driver's sgx_nr_free_pages module parameter (§V-E).
func (p *Package) FreePages() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	free := p.geo.UsablePages() - p.committed
	if free < 0 {
		free = 0
	}
	return free
}

// PagesForPID returns the pages committed by all enclaves of one process —
// the per-process metric of the patched driver's occupancy ioctl (§V-E).
func (p *Package) PagesForPID(pid int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byPID[pid]
}

// PagesForCgroup returns the pages committed by all enclaves whose owning
// pod has the given cgroup path (§V-D uses the cgroup path as pod
// identity).
func (p *Package) PagesForCgroup(cgroupPath string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byCgroup[cgroupPath]
}

// EnclaveCount returns the number of live enclaves.
func (p *Package) EnclaveCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.enclaves)
}

// ResidentFraction returns the fraction of committed pages that are
// resident in the EPC. Below full commitment it is 1; with over-commitment
// the EPC is shared proportionally and the fraction drops below 1.
func (p *Package) ResidentFraction() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.committed <= p.geo.UsablePages() {
		return 1
	}
	return float64(p.geo.UsablePages()) / float64(p.committed)
}

// MaxPagingSlowdown bounds the paging penalty: over-commitment "leads to
// severe performance drops up to 1000×" (§V-A, after SCONE's measurements).
const MaxPagingSlowdown = 1000.0

// SlowdownFactor returns the execution-time dilation caused by EPC paging
// at the current commitment level. With every page resident the factor is
// 1. Under over-commitment, a uniformly accessing enclave misses with
// probability (1 - resident fraction) and each miss pays the
// EWB/ELDU + MEE round trip, which we calibrate so that the factor
// approaches the published 1000× worst case as residency goes to zero:
//
//	slowdown = 1 + (MaxPagingSlowdown-1) · (1 - residentFraction)
func (p *Package) SlowdownFactor() float64 {
	return 1 + (MaxPagingSlowdown-1)*(1-p.ResidentFraction())
}
