// Package deviceplugin implements the paper's Kubernetes device plugin
// (§V-A): it detects the SGX kernel module on a node and exposes every
// usable EPC page as an individually schedulable resource item, so that
// "several pods can be deployed and share a single node".
//
// The real plugin talks to Kubelet over gRPC (ListAndWatch / Allocate);
// here the same interface is invoked in-process by the kubelet's device
// manager. An allocation response carries the /dev/isgx mount, exactly
// what Kubernetes injects into SGX pods.
package deviceplugin

import (
	"errors"
	"fmt"
	"sync"

	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// Errors returned by Allocate.
var (
	// ErrInsufficientDevices is returned when a pod requests more EPC
	// page items than remain free on the node.
	ErrInsufficientDevices = errors.New("deviceplugin: insufficient EPC page devices")
	// ErrAlreadyAllocated is returned when a pod's cgroup already holds
	// page items.
	ErrAlreadyAllocated = errors.New("deviceplugin: pod already holds an allocation")
)

// Mount describes a host path injected into a container.
type Mount struct {
	HostPath      string
	ContainerPath string
}

// AllocateResponse tells the kubelet how to wire the allocated devices
// into the pod.
type AllocateResponse struct {
	// Pages is the number of EPC page items granted.
	Pages int64
	// Mount is the /dev/isgx device file (§V-F: "mounting the /dev/isgx
	// pseudo-file exposed by the host kernel directly into the
	// container"), the one mount an SGX pod needs.
	Mount Mount
}

// SGXPlugin is the per-node device plugin instance.
type SGXPlugin struct {
	driver *isgx.Driver

	// mu guards free and each cgroup's DevicePages, the items it holds.
	mu   sync.Mutex
	free int64
}

// Detect probes a machine for the SGX kernel module, as the plugin does on
// startup ("checks for the availability of the Intel SGX kernel module on
// each node and reports it to Kubelet", §V-A). It returns (nil, false) on
// machines without SGX.
func Detect(m *machine.Machine) (*SGXPlugin, bool) {
	if m == nil || !m.HasSGX() {
		return nil, false
	}
	return New(m.Driver()), true
}

// New builds a plugin over an isgx driver.
func New(driver *isgx.Driver) *SGXPlugin {
	return &SGXPlugin{driver: driver, free: driver.TotalEPCPages()}
}

// ResourceName returns the extended resource this plugin serves.
func (p *SGXPlugin) ResourceName() resource.Name { return resource.EPCPages }

// DeviceCount reports the number of resource items advertised — one per
// usable EPC page, 23 936 on the paper's hardware. "Despite the great
// amount of resources created with this scheme, we did not notice any
// perceptible negative influence on performance" (§V-A).
func (p *SGXPlugin) DeviceCount() int64 { return p.driver.TotalEPCPages() }

// FreeDevices reports the unallocated page items.
func (p *SGXPlugin) FreeDevices() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.free
}

// Allocate grants pages EPC page items to the pod's cgroup and returns, by
// value, the device mount. The plugin deliberately prevents
// over-commitment of the EPC "in order to preserve predictable
// performance for all pods deployed in the cluster" (§V-A).
func (p *SGXPlugin) Allocate(cg *cgroup.Cgroup, pages int64) (AllocateResponse, error) {
	if pages <= 0 {
		return AllocateResponse{}, fmt.Errorf("deviceplugin: non-positive page request %d", pages)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if cg.DevicePages > 0 {
		return AllocateResponse{}, fmt.Errorf("%w: %s", ErrAlreadyAllocated, cg.Path())
	}
	if pages > p.free {
		return AllocateResponse{}, fmt.Errorf("%w: requested %d, free %d", ErrInsufficientDevices, pages, p.free)
	}
	p.free -= pages
	cg.DevicePages = pages
	return AllocateResponse{
		Pages: pages,
		Mount: Mount{HostPath: isgx.DevicePath, ContainerPath: isgx.DevicePath},
	}, nil
}

// Deallocate returns a pod's page items to the free pool. A cgroup that
// holds none is a no-op (idempotent teardown).
func (p *SGXPlugin) Deallocate(cg *cgroup.Cgroup) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free += cg.DevicePages
	cg.DevicePages = 0
}
