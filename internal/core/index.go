package core

// Indexed node sets: the candidate-generation structure behind O(sample)
// scheduling passes. An incremental ClusterView (see cache.go SyncView)
// keeps every schedulable node in a two-level index — partitioned by SGX
// capability, then bucketed by the magnitude of the node's free capacity
// on its contended resource (log2 buckets of free memory for every node;
// log2 buckets of effective free EPC for SGX nodes). A pod's candidate
// search starts from the buckets that can possibly fit its request
// instead of scanning view.Nodes: nodes in skipped buckets are *provably*
// infeasible for the §IV saturation check (NodeView.Fits), so the index
// never hides a node the full scan would accept — the completeness
// property the equivalence tests in sampling_test.go pin.
//
// The index is maintained by exactly the two paths that mutate an
// incremental view: SyncView's per-node reconciliation (bind/terminal/
// metric/node events replayed from the cache's change journal) and the
// pass's own Commit calls. Buckets use swap-remove, so membership moves
// are O(1); within-bucket order is therefore arrival order, which is
// deterministic for deterministic event histories — the property the
// sampling determinism test relies on.

import (
	"math/bits"

	"github.com/sgxorch/sgxorch/internal/resource"
)

// numBuckets covers bucketOf's range: 0 (no free capacity) plus one
// bucket per possible bit length of a positive int64 quantity.
const numBuckets = 65

// Partition indices: standard nodes first, SGX nodes second — the same
// SGX-last order the §IV policies prefer, so a standard pod's walk meets
// non-SGX hardware before it ever touches an SGX node.
const (
	partStandard = 0
	partSGX      = 1
)

// nodeIndex is the per-view candidate index.
type nodeIndex struct {
	parts [2]indexPartition
}

// indexPartition buckets one hardware class. epc is populated only for
// the SGX partition (standard nodes have no EPC to index).
type indexPartition struct {
	mem [numBuckets][]*NodeView
	epc [numBuckets][]*NodeView
}

// bucketOf maps a free quantity to its magnitude bucket: bucket b > 0
// holds quantities in [2^(b-1), 2^b), bucket 0 holds "nothing free".
func bucketOf(free int64) int8 {
	if free <= 0 {
		return 0
	}
	return int8(bits.Len64(uint64(free)))
}

// minBucketFor returns the lowest bucket that can hold a node with free
// capacity >= req. Every node in a lower bucket has free < 2^(minB-1+1)
// <= req, so skipping those buckets can never lose a feasible node.
func minBucketFor(req int64) int {
	if req <= 0 {
		return 0
	}
	return bits.Len64(uint64(req))
}

// memFreeOf is the free capacity the memory index buckets: the §IV
// saturation headroom on memory.
func memFreeOf(n *NodeView) int64 {
	return n.Allocatable.Get(resource.Memory) - n.Used.Get(resource.Memory)
}

// epcEffOf is the effective EPC headroom the EPC index buckets: an SGX
// pod needs both the usage-based EPC headroom and the strict device-item
// headroom, so the index uses their minimum.
func epcEffOf(n *NodeView) int64 {
	eff := n.Allocatable.Get(resource.EPCPages) - n.Used.Get(resource.EPCPages)
	if n.FreeDevices < eff {
		eff = n.FreeDevices
	}
	return eff
}

// insert adds a node to its partition's buckets. The node must not
// already be indexed.
func (ix *nodeIndex) insert(n *NodeView) {
	p := int8(partStandard)
	if n.SGX {
		p = partSGX
	}
	n.idxPart = p
	part := &ix.parts[p]
	n.memBucket = bucketOf(memFreeOf(n))
	part.mem[n.memBucket] = append(part.mem[n.memBucket], n)
	n.memPos = int32(len(part.mem[n.memBucket]) - 1)
	if p == partSGX {
		n.epcBucket = bucketOf(epcEffOf(n))
		part.epc[n.epcBucket] = append(part.epc[n.epcBucket], n)
		n.epcPos = int32(len(part.epc[n.epcBucket]) - 1)
	} else {
		n.epcBucket = -1
	}
}

// remove takes a node out of its partition's buckets (swap-remove; the
// node moved into the vacated slot gets its position fixed up).
func (ix *nodeIndex) remove(n *NodeView) {
	part := &ix.parts[n.idxPart]
	removeFromBucket(&part.mem[n.memBucket], n.memPos, false)
	if n.epcBucket >= 0 {
		removeFromBucket(&part.epc[n.epcBucket], n.epcPos, true)
		n.epcBucket = -1
	}
}

func removeFromBucket(bucket *[]*NodeView, pos int32, epc bool) {
	b := *bucket
	last := len(b) - 1
	moved := b[last]
	b[pos] = moved
	if epc {
		moved.epcPos = pos
	} else {
		moved.memPos = pos
	}
	b[last] = nil
	*bucket = b[:last]
}

// rebucket moves a node between buckets after its free capacity changed.
// The partition must be unchanged (callers handle SGX flips with
// remove+insert).
func (ix *nodeIndex) rebucket(n *NodeView) {
	part := &ix.parts[n.idxPart]
	if mb := bucketOf(memFreeOf(n)); mb != n.memBucket {
		removeFromBucket(&part.mem[n.memBucket], n.memPos, false)
		part.mem[mb] = append(part.mem[mb], n)
		n.memBucket = mb
		n.memPos = int32(len(part.mem[mb]) - 1)
	}
	if n.epcBucket >= 0 {
		if eb := bucketOf(epcEffOf(n)); eb != n.epcBucket {
			removeFromBucket(&part.epc[n.epcBucket], n.epcPos, true)
			part.epc[eb] = append(part.epc[eb], n)
			n.epcBucket = eb
			n.epcPos = int32(len(part.epc[eb]) - 1)
		}
	}
}

// reset empties every bucket, keeping backing arrays for reuse.
func (ix *nodeIndex) reset() {
	for p := range ix.parts {
		part := &ix.parts[p]
		for b := range part.mem {
			clearBucket(&part.mem[b])
			clearBucket(&part.epc[b])
		}
	}
}

func clearBucket(bucket *[]*NodeView) {
	b := *bucket
	for i := range b {
		b[i] = nil
	}
	*bucket = b[:0]
}

// Sampled-scoring defaults (see numFeasibleNodesToFind).
const (
	// DefaultMinFeasibleNodesToFind floors the adaptive sample size: no
	// matter how small the percentage, a search keeps going until it has
	// this many feasible candidates (or runs out of nodes) — kube-
	// scheduler's minFeasibleNodesToFind.
	DefaultMinFeasibleNodesToFind = 100
	// samplingMinClusterSize: clusters at or below this size always score
	// every node, so sampling never changes behaviour for the paper-scale
	// testbeds (§VI runs tens of nodes).
	samplingMinClusterSize = 100
)

// numFeasibleNodesToFind returns how many feasible candidates one pod's
// search should stop after, given the pipeline's floor and the cluster
// size. The percentage mirrors kube-scheduler's adaptive
// percentageOfNodesToScore: 50% shrinking linearly with cluster size down
// to a 5% floor, full scan at or below samplingMinClusterSize nodes.
func numFeasibleNodesToFind(minFeasible, numNodes int) int {
	if numNodes <= samplingMinClusterSize {
		return numNodes
	}
	pct := 50 - numNodes/125
	if pct < 5 {
		pct = 5
	}
	k := numNodes * pct / 100
	if k < minFeasible {
		k = minFeasible
	}
	if k > numNodes {
		k = numNodes
	}
	return k
}

// sampleFeasible generates up to limit feasible candidates for pod by
// walking the index's eligible buckets as one ring: the cursor starts at a
// rotating offset into the eligible sequence and wraps around, stopping
// after limit candidates or once every eligible node was visited. Every
// visited node runs the §IV fit (NodeView.Fits), so the returned
// candidates are a subset of what a full scan would accept; because
// ineligible buckets are provably infeasible, a walk that exhausts the
// ring (limit >= eligible) finds exactly the full-scan feasible set.
//
// Bucket walk order is lowest eligible bucket first — a best-fit bias
// that steers pods toward the tightest nodes that can still hold them —
// and standard pods meet the standard partition before the SGX one,
// matching the §IV SGX-last preference at generation time (the policy
// still enforces it on whatever is found).
//
// Returns the appended candidate slice and the number of nodes visited;
// the caller advances its rotation offset by the latter so consecutive
// searches start where the last one stopped, spreading coverage over all
// eligible nodes across passes. With a fixed starting offset and a
// deterministic index, the walk is fully deterministic.
func (v *ClusterView) sampleFeasible(pod *PodInfo, limit, offset int, buf []*NodeView) ([]*NodeView, int) {
	total := v.eligible(pod)
	if total == 0 {
		return buf, 0
	}
	// The cursor is (bucket b, position i); eligible lists no empty bucket.
	seq := v.seqScratch
	b, i := 0, offset%total
	for i >= len(seq[b]) {
		i -= len(seq[b])
		b++
	}
	visited := 0
	for visited < total {
		n := seq[b][i]
		visited++
		if n.Fits(pod.Req) {
			buf = append(buf, n)
			if len(buf) >= limit {
				break
			}
		}
		if i++; i == len(seq[b]) {
			i = 0
			if b++; b == len(seq) {
				b = 0
			}
		}
	}
	return buf, visited
}

// eligible lists the index buckets that can hold pod, in walk order, into
// the view's sequence scratch and returns how many nodes they hold — what
// a search that finds nothing visits.
func (v *ClusterView) eligible(pod *PodInfo) int {
	ix := v.idx
	seq := v.seqScratch[:0]
	if pod.SGX {
		minB := minBucketFor(pod.EPCPages)
		part := &ix.parts[partSGX]
		for b := minB; b < numBuckets; b++ {
			if s := part.epc[b]; len(s) > 0 {
				seq = append(seq, s)
			}
		}
	} else {
		minB := minBucketFor(pod.Req[resource.Memory])
		for _, p := range [2]int{partStandard, partSGX} {
			part := &ix.parts[p]
			for b := minB; b < numBuckets; b++ {
				if s := part.mem[b]; len(s) > 0 {
					seq = append(seq, s)
				}
			}
		}
	}
	v.seqScratch = seq
	total := 0
	for _, s := range seq {
		total += len(s)
	}
	return total
}
