package core

import (
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

func TestNodeViewFitsHardwareFilter(t *testing.T) {
	std := nv("std", false, 1000, 0, 0, 0)
	// An SGX job on a non-SGX node can never be satisfied (§IV).
	if std.Fits(resource.List{resource.EPCPages: 1}) {
		t.Fatal("non-SGX node accepted EPC request")
	}
	if !std.Fits(resource.List{resource.Memory: 1000}) {
		t.Fatal("exact-fit memory rejected")
	}
	if std.Fits(resource.List{resource.Memory: 1001}) {
		t.Fatal("saturating request accepted")
	}
}

func TestNodeViewFitsDeviceAccounting(t *testing.T) {
	sgxNode := nv("sgx", true, 1000, 0, 1000, 0)
	sgxNode.FreeDevices = 10
	// Usage-based headroom says yes (Used=0), but only 10 device items
	// remain: the request must be rejected to avoid kubelet denial.
	if sgxNode.Fits(resource.List{resource.EPCPages: 11}) {
		t.Fatal("request beyond free devices accepted")
	}
	if !sgxNode.Fits(resource.List{resource.EPCPages: 10}) {
		t.Fatal("request within free devices rejected")
	}
}

// An over-used node (the malicious tenant of Fig. 11: measured EPC above
// allocatable) has negative headroom on that resource. It takes nothing
// more of it, and still takes a pod that asks for none.
func TestNodeViewFitsOverusedNode(t *testing.T) {
	n := nv("n", true, 1000, 0, 100, 140)
	n.FreeDevices = 100
	if n.Fits(resource.List{resource.Memory: 10, resource.EPCPages: 1}) {
		t.Fatal("EPC request accepted on a node with negative EPC headroom")
	}
	if !n.Fits(resource.List{resource.Memory: 10}) {
		t.Fatal("standard pod rejected because of EPC it does not ask for")
	}
	if !n.Fits(resource.List{}) {
		t.Fatal("empty request rejected")
	}
}

func TestClusterViewCommit(t *testing.T) {
	n := nv("n", true, 1000, 0, 500, 0)
	view := &ClusterView{Nodes: []*NodeView{n}}
	view.Commit("n", resource.List{resource.Memory: 400, resource.EPCPages: 100})
	if n.Used.Get(resource.Memory) != 400 {
		t.Fatalf("Used = %v", n.Used)
	}
	if n.FreeDevices != 400 {
		t.Fatalf("FreeDevices = %d, want 400", n.FreeDevices)
	}
	view.Commit("ghost", resource.List{resource.Memory: 1}) // no-op
	if view.Node("ghost") != nil {
		t.Fatal("ghost node materialised")
	}
}

func TestPodUsageRequestOnlyMode(t *testing.T) {
	p := sgxPodReq(100, 10)
	now := clock.SimEpoch
	mem, epc := podUsage(p, p.TotalRequests(), 999999, 999999, now, 25*time.Second, false)
	if mem != 100 || epc != 10 {
		t.Fatalf("request-only usage = %d bytes, %d pages", mem, epc)
	}
}

func TestPodUsageYoungPodTakesMax(t *testing.T) {
	p := sgxPodReq(100, 10)
	now := clock.SimEpoch
	// Not yet started: requests dominate missing metrics.
	mem, epc := podUsage(p, p.TotalRequests(), 0, 0, now, 25*time.Second, true)
	if mem != 100 || epc != 10 {
		t.Fatalf("young unstarted usage = %d bytes, %d pages", mem, epc)
	}
	// Started 5s ago with metrics above requests (malicious): max wins.
	p.Status.StartedAt = now.Add(-5 * time.Second)
	mem, epc = podUsage(p, p.TotalRequests(), 500, float64(20*4096), now, 25*time.Second, true)
	if mem != 500 || epc != 20 {
		t.Fatalf("young measured usage = %d bytes, %d pages", mem, epc)
	}
}

func TestPodUsageMaturePodTrustsMetrics(t *testing.T) {
	p := sgxPodReq(1000, 100)
	now := clock.SimEpoch.Add(time.Hour)
	p.Status.StartedAt = now.Add(-time.Minute)
	// Mature over-declaring pod: measured (low) frees headroom for the
	// usage-aware scheduler.
	mem, epc := podUsage(p, p.TotalRequests(), 200, float64(30*4096), now, 25*time.Second, true)
	if mem != 200 || epc != 30 {
		t.Fatalf("mature usage = %d bytes, %d pages", mem, epc)
	}
}

func TestPodUsageMaliciousMatureExceedsRequests(t *testing.T) {
	// Declares 1 page, uses half the EPC: a usage-aware scheduler must
	// see the real footprint (Fig. 11's mechanism).
	p := sgxPodReq(1, 1)
	now := clock.SimEpoch.Add(time.Hour)
	p.Status.StartedAt = now.Add(-10 * time.Minute)
	halfEPC := float64(11968 * 4096)
	_, epc := podUsage(p, p.TotalRequests(), 0, halfEPC, now, 25*time.Second, true)
	if epc != 11968 {
		t.Fatalf("malicious usage = %d pages, want 11968", epc)
	}
}

func TestViewNodeLookupAndSort(t *testing.T) {
	view := &ClusterView{Nodes: []*NodeView{
		nv("z", false, 1, 0, 0, 0),
		nv("a", false, 1, 0, 0, 0),
	}}
	view.sortNodes()
	if view.Nodes[0].Name != "a" || view.Nodes[1].Name != "z" {
		t.Fatal("sortNodes did not order by name")
	}
	if view.Node("z") == nil || view.Node("missing") != nil {
		t.Fatal("Node lookup wrong")
	}
}

var _ = api.PodPending // keep api import for helpers above
