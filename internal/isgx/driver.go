// Package isgx simulates the paper's modified Intel SGX Linux kernel
// driver (§V-E): EPC usage counters exported as module parameters and the
// cgroup-keyed EPC limit ioctl that enforces pod resource declarations at
// enclave initialization (§V-D). The patch's per-process occupancy ioctl
// is not modelled: nothing in the stack issues it.
//
// The real patch is 115 lines of C on top of Intel's isgx driver; this
// package reproduces its externally observable contract so that the
// kubelet, device plugin, metrics probe and scheduler interact with it
// exactly as the paper describes.
package isgx

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"github.com/sgxorch/sgxorch/internal/sgx"
)

// DevicePath is the pseudo-file the SDK uses to reach the kernel module;
// Docker mounts it into SGX containers (§V-F).
const DevicePath = "/dev/isgx"

// SysfsDir is where the module parameters appear (§V-E).
const SysfsDir = "/sys/module/isgx/parameters"

// Module parameter names (§V-E).
const (
	ParamTotalEPCPages = "sgx_nr_total_epc_pages"
	ParamFreePages     = "sgx_nr_free_pages"
)

// Errors returned by driver entry points.
var (
	// ErrLimitExists mirrors the write-once rule: "limits can only be set
	// once for each pod, therefore preventing the containers themselves
	// from resetting them" (§V-E).
	ErrLimitExists = errors.New("isgx: EPC limit already set for cgroup")
	// ErrEnclaveDenied is returned when __sgx_encl_init refuses an
	// enclave whose pod exceeds its advertised EPC share (§V-D).
	ErrEnclaveDenied = errors.New("isgx: enclave initialization denied: EPC limit exceeded")
	// ErrInvalidArgument is returned for malformed ioctl arguments.
	ErrInvalidArgument = errors.New("isgx: invalid argument")
)

// Driver is the simulated kernel module instance of one machine.
type Driver struct {
	pkg *sgx.Package
	// enforce toggles limit enforcement; Fig. 11 compares runs with
	// enforcement enabled and disabled.
	enforce bool

	mu     sync.Mutex
	limits map[string]int64 // cgroup path -> page limit (write-once)
}

// Option configures a Driver.
type Option func(*Driver)

// WithoutEnforcement disables the EPC limit check at enclave init,
// emulating the unmodified upstream driver (the "limits disabled" runs of
// Fig. 11).
func WithoutEnforcement() Option {
	return func(d *Driver) { d.enforce = false }
}

// New attaches a driver to an SGX package. Limit enforcement is enabled by
// default.
func New(pkg *sgx.Package, opts ...Option) *Driver {
	d := &Driver{
		pkg:     pkg,
		enforce: true,
		limits:  make(map[string]int64),
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Package exposes the underlying SGX package (for tests and the machine
// model).
func (d *Driver) Package() *sgx.Package { return d.pkg }

// Enforcing reports whether EPC limit enforcement is active.
func (d *Driver) Enforcing() bool { return d.enforce }

// TotalEPCPages returns the application-usable EPC page count — the value
// of the sgx_nr_total_epc_pages module parameter and the number of
// resource items the device plugin advertises (23 936 on the paper's
// hardware).
func (d *Driver) TotalEPCPages() int64 { return d.pkg.Geometry().UsablePages() }

// FreePages returns the sgx_nr_free_pages module parameter: "amount of
// pages not allocated to a particular enclave" (§V-E).
func (d *Driver) FreePages() int64 { return d.pkg.FreePages() }

// Sysfs renders the module parameters as the pseudo-filesystem view under
// /sys/module/isgx/parameters.
func (d *Driver) Sysfs() map[string]string {
	return map[string]string{
		SysfsDir + "/" + ParamTotalEPCPages: strconv.FormatInt(d.TotalEPCPages(), 10),
		SysfsDir + "/" + ParamFreePages:     strconv.FormatInt(d.FreePages(), 10),
	}
}

// IoctlSetLimit records the EPC page limit for a pod identified by its
// cgroup path — the limit ioctl of §V-E, issued by the patched
// Kubelet at pod creation (§V-D). Limits are write-once.
func (d *Driver) IoctlSetLimit(cgroupPath string, pages int64) error {
	if cgroupPath == "" {
		return fmt.Errorf("%w: empty cgroup path", ErrInvalidArgument)
	}
	if pages < 0 {
		return fmt.Errorf("%w: negative page limit %d", ErrInvalidArgument, pages)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.limits[cgroupPath]; ok {
		return fmt.Errorf("%w: %s", ErrLimitExists, cgroupPath)
	}
	d.limits[cgroupPath] = pages
	return nil
}

// LimitFor returns the registered page limit for a cgroup path.
func (d *Driver) LimitFor(cgroupPath string) (pages int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok = d.limits[cgroupPath]
	return pages, ok
}

// ClearLimit removes a limit after pod teardown so the cgroup path can be
// reused by a future pod. Only the kubelet calls this; containers cannot.
func (d *Driver) ClearLimit(cgroupPath string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.limits, cgroupPath)
}

// PagesForCgroup aggregates EPC occupancy per pod (via its cgroup path) —
// the quantity the SGX metrics probe pushes into the time-series database
// (§V-C). The package keeps the total as enclaves commit and release
// pages, so this is a lookup, not a walk of the pod's enclaves.
func (d *Driver) PagesForCgroup(cgroupPath string) int64 {
	return d.pkg.PagesForCgroup(cgroupPath)
}

// OpenEnclave performs the complete enclave setup path of an SDK
// application: ECREATE, EADD of all pages (SGX 1 commits everything up
// front), and EINIT with the __sgx_encl_init limit check of §V-D/§V-E:
// the total pages owned by the pod's enclaves are compared against the
// limit advertised by its enclosing pod; exceeding it denies
// initialization and releases the pages.
func (d *Driver) OpenEnclave(pid int, cgroupPath string, pages int64) (*sgx.Enclave, error) {
	if pages < 0 {
		return nil, fmt.Errorf("%w: negative page count %d", ErrInvalidArgument, pages)
	}
	e := d.pkg.CreateEnclave(pid, cgroupPath)
	if err := e.AddPages(pages); err != nil {
		derr := e.Destroy()
		if derr != nil {
			return nil, errors.Join(err, derr)
		}
		return nil, err
	}
	if err := d.checkEnclInit(cgroupPath); err != nil {
		derr := e.Destroy()
		if derr != nil {
			return nil, errors.Join(err, derr)
		}
		return nil, err
	}
	if err := e.Init(); err != nil {
		return nil, err
	}
	return e, nil
}

// checkEnclInit is the enforcement hook added to __sgx_encl_init (§V-E).
func (d *Driver) checkEnclInit(cgroupPath string) error {
	if !d.enforce {
		return nil
	}
	d.mu.Lock()
	limit, ok := d.limits[cgroupPath]
	d.mu.Unlock()
	if !ok {
		// No limit registered for this cgroup (e.g. host processes
		// outside Kubernetes): allowed, as in the paper's driver.
		return nil
	}
	if used := d.pkg.PagesForCgroup(cgroupPath); used > limit {
		return fmt.Errorf("%w: cgroup %s uses %d pages, limit %d",
			ErrEnclaveDenied, cgroupPath, used, limit)
	}
	return nil
}
