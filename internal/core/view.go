// Package core implements the paper's primary contribution: the SGX-aware
// scheduler (§IV, §V-B). It periodically drains the API server's
// priority-then-FCFS pending queue, fuses static resource requests with
// live usage metrics (the sliding-window peaks of Listing 1), and runs
// each pod through one pipeline (framework.go): the §IV filter for
// hardware compatibility and saturation (NodeView.Fits, below), pre-score
// plugins for the SGX-last preference, and weighted score plugins for
// placement quality.
// The supported policies — binpack, spread, and the request-only baseline
// mirroring Kubernetes' default scheduler — are profiles over those
// plugins, bit-identical to their original fixed implementations. When a
// pod finds no feasible node, the scheduler may preempt strictly
// lower-priority pods (preemption.go): minimal victim sets, deterministic
// tie-breaks, victims re-queued rather than failed.
//
// Listing 1 is read two ways. In production the scheduler never queries
// the time-series database: monitor.WindowMax, a streaming aggregator on
// the database's write path, maintains the same per-(pod, node) window
// peaks and feeds the event-driven ClusterCache (cache.go) — the
// scheduler's only read of usage. The literal InfluxQL query runs only in
// the package's test oracle (oracle_test.go), the from-scratch reference
// every cache property test compares an incremental view against.
package core

import (
	"sort"
	"time"

	"github.com/sgxorch/sgxorch/internal/resource"
)

// NodeView is the scheduler's working snapshot of one node during a pass.
type NodeView struct {
	Name string
	// SGX reports whether the node advertises EPC page resources — the
	// hardware-compatibility dimension of the §IV filter.
	SGX         bool
	Allocatable resource.List
	// Used is the effective usage estimate: measured usage fused with
	// requests of freshly placed pods whose allocations are not yet
	// visible in the 25 s metric window.
	Used resource.List
	// FreeDevices is the strict EPC page-item headroom by request
	// accounting; the device plugin enforces this bound at admission, so
	// the scheduler must never exceed it (§V-A: no EPC over-commitment).
	FreeDevices int64

	// Index locator fields, maintained by nodeIndex (index.go) for nodes
	// held in a scheduler's incremental view; zero and meaningless in a
	// literal NodeView built outside one (the preemption planner's scratch
	// node, plugin unit tests, the test oracle).
	idxPart   int8
	memBucket int8
	epcBucket int8
	memPos    int32
	epcPos    int32
}

// Fits is the one statement of the §IV filter: whether a pod with the
// given requests can be placed on this node. Hardware compatibility (EPC
// on non-SGX nodes can never fit), device-item availability, and the
// saturation check of every requested quantity against the usage-based
// headroom. The headroom may be negative — measured usage above
// allocatable, the malicious tenant of Fig. 11 — and List.Fits skips the
// resources the pod does not ask for, so such a node still takes a pod
// that needs none of the over-used resource.
func (v *NodeView) Fits(req resource.List) bool {
	if pages := req[resource.EPCPages]; pages > 0 && (!v.SGX || pages > v.FreeDevices) {
		return false
	}
	return v.Allocatable.Sub(v.Used).Fits(req)
}

// ClusterView is the scheduler's snapshot of all schedulable nodes for one
// pass. Nodes are kept sorted by name: "the order of the nodes stays
// consistent by always sorting them in the same way" (§IV).
//
// The scheduler builds exactly one kind: the incremental view
// (ClusterCache.NewView, kept current via ClusterCache.SyncView), which
// besides Nodes maintains a name map, the candidate index of index.go,
// and a pool of retired NodeViews so that bringing the view up to date
// after a pass is O(changed nodes) instead of O(cluster). It is owned by
// one scheduler and must only be mutated through Commit and SyncView. A
// literal &ClusterView{Nodes: ...} is still a valid read-only input to
// plugins, Node and Commit — which is what plugin unit tests and the test
// oracle hand around — but nothing in the scheduler plans a pass on one.
type ClusterView struct {
	Nodes []*NodeView

	// Incremental-view state; all nil/zero in a literal view.
	byName     map[string]*NodeView
	idx        *nodeIndex
	epoch      uint64
	syncedTo   int64
	freeNodes  []*NodeView
	seqScratch [][]*NodeView

	// loosened counts the syncs that may have let some pod fit, or find
	// victims, where it could not before: a node inserted, a node's
	// headroom, allocatable or free devices risen or its SGX gained, a
	// rebuild, or a gang member leaving the cluster (gangLeft is the cache's
	// departure count as of the last sync). Commit and dropNode only
	// tighten and leave it alone. The pass's failure memo (memo.go) holds
	// only while it stands still.
	loosened uint64
	gangLeft uint64
}

// newIndexedView returns an empty incremental view; ClusterCache.SyncView
// populates it.
func newIndexedView() *ClusterView {
	return &ClusterView{byName: make(map[string]*NodeView), idx: &nodeIndex{}}
}

// Node returns the view of the named node, or nil.
func (c *ClusterView) Node(name string) *NodeView {
	if c.byName != nil {
		return c.byName[name]
	}
	for _, n := range c.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Commit records a placement decided in this pass so later decisions in
// the same pass see the node's reduced headroom. On an incremental view
// the node is also re-bucketed so candidate generation sees the reduced
// headroom immediately.
func (c *ClusterView) Commit(nodeName string, req resource.List) {
	n := c.Node(nodeName)
	if n == nil {
		return
	}
	n.Used = n.Used.Add(req)
	n.FreeDevices -= req[resource.EPCPages]
	if c.idx != nil {
		c.idx.rebucket(n)
	}
}

// takeNodeView returns a NodeView for the named node, recycling a retired
// one when available.
func (c *ClusterView) takeNodeView(name string) *NodeView {
	if k := len(c.freeNodes); k > 0 {
		n := c.freeNodes[k-1]
		c.freeNodes[k-1] = nil
		c.freeNodes = c.freeNodes[:k-1]
		n.Name = name
		return n
	}
	return &NodeView{Name: name}
}

// fillNode overwrites a NodeView's scheduling state in place. It does not
// touch the index; callers re-bucket or insert.
func (c *ClusterView) fillNode(n *NodeView, sgx bool, alloc resource.List, memUsed, epcUsed, freeDev int64) {
	n.SGX = sgx
	n.Allocatable = alloc
	n.Used = resource.List{resource.Memory: memUsed, resource.EPCPages: epcUsed}
	n.FreeDevices = freeDev
}

// setNode reconciles one node into an incremental view: inserts it (kept
// name-sorted) if absent, otherwise updates it in place and re-buckets.
func (c *ClusterView) setNode(name string, sgx bool, alloc resource.List, memUsed, epcUsed, freeDev int64) {
	if n := c.byName[name]; n != nil {
		if loosens(n, sgx, alloc, memUsed, epcUsed, freeDev) {
			c.loosened++
		}
		if n.SGX != sgx {
			// Partition flip: reinsert under the other hardware class.
			c.idx.remove(n)
			c.fillNode(n, sgx, alloc, memUsed, epcUsed, freeDev)
			c.idx.insert(n)
			return
		}
		c.fillNode(n, sgx, alloc, memUsed, epcUsed, freeDev)
		c.idx.rebucket(n)
		return
	}
	c.loosened++
	n := c.takeNodeView(name)
	c.fillNode(n, sgx, alloc, memUsed, epcUsed, freeDev)
	i := sort.Search(len(c.Nodes), func(i int) bool { return c.Nodes[i].Name >= name })
	c.Nodes = append(c.Nodes, nil)
	copy(c.Nodes[i+1:], c.Nodes[i:])
	c.Nodes[i] = n
	c.byName[name] = n
	c.idx.insert(n)
}

// loosens reports whether refilling n with the given state could let a pod
// fit it, or find victims on it, that could not before: SGX gained, or any
// resource's allocatable, headroom or free devices risen. A refill also
// drops the CPU a mid-pass Commit charged, which counts as headroom risen.
func loosens(n *NodeView, sgx bool, alloc resource.List, memUsed, epcUsed, freeDev int64) bool {
	if (sgx && !n.SGX) || freeDev > n.FreeDevices {
		return true
	}
	used := resource.List{resource.Memory: memUsed, resource.EPCPages: epcUsed}
	for r := range alloc {
		if alloc[r] > n.Allocatable[r] || alloc[r]-used[r] > n.Allocatable[r]-n.Used[r] {
			return true
		}
	}
	return false
}

// dropNode removes a node from an incremental view and retires its
// NodeView to the pool.
func (c *ClusterView) dropNode(name string) {
	n := c.byName[name]
	if n == nil {
		return
	}
	delete(c.byName, name)
	c.idx.remove(n)
	i := sort.Search(len(c.Nodes), func(i int) bool { return c.Nodes[i].Name >= name })
	c.Nodes = append(c.Nodes[:i], c.Nodes[i+1:]...)
	c.freeNodes = append(c.freeNodes, n)
}

// recycleAll retires every node to the pool and empties the index,
// preparing the view for a full rebuild — which may loosen anything.
func (c *ClusterView) recycleAll() {
	c.loosened++
	c.freeNodes = append(c.freeNodes, c.Nodes...)
	for i := range c.Nodes {
		c.Nodes[i] = nil
	}
	c.Nodes = c.Nodes[:0]
	clear(c.byName)
	c.idx.reset()
}

// fuseUsage is the per-pod fusion of measured usage and declared requests.
//
// The paper's scheduler decides "based on actual measured memory usage
// (for the EPC as well as regular memory)" (§V-B). Freshly bound or
// freshly started pods have not yet been sampled by the 10 s probes, so
// for pods younger than the metric lag the scheduler takes the maximum of
// the measurement and the request; mature pods are charged their measured
// usage only — which is how a usage-aware scheduler reclaims headroom from
// over-declaring jobs and detects under-declaring (malicious) ones.
// fuseUsage takes and returns scalars rather than resource.Lists: the
// cache re-fuses a pod on every metric, maturity and status change and
// folds the result straight into its node's usage sums. The test oracle
// fuses through the same function, so both sides apply bit-identical
// arithmetic — the equivalence property the cache is tested against
// depends on it.
func fuseUsage(reqMem, reqEPC int64, measuredMem, measuredEPCBytes float64, startedAt, now time.Time, lag time.Duration, useMetrics bool) (memBytes, epcPages int64) {
	if !useMetrics {
		return reqMem, reqEPC
	}
	memBytes = int64(measuredMem)
	epcPages = resource.PagesForBytes(int64(measuredEPCBytes))
	young := startedAt.IsZero() || now.Sub(startedAt) < lag
	if young {
		if reqMem > memBytes {
			memBytes = reqMem
		}
		if reqEPC > epcPages {
			epcPages = reqEPC
		}
	}
	return memBytes, epcPages
}
