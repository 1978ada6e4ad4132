package apiserver

import (
	"sync"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// numStripes is the number of lock stripes for each of the pod and node
// state maps — a power of two so the stripe index is a mask over the
// name hash. 64 stripes make two concurrent binds unlikely to collide
// on an unrelated stripe, while the stop-the-world sweep (snapshots,
// informer handshakes) stays a short, bounded lock ladder.
//
// Lock ordering (outer to inner) — every code path acquires along this
// ladder, never backwards, so the striped server cannot deadlock:
//
//	pod stripes (ascending index)
//	  → node stripes (ascending index)
//	    → pendingMu
//	      → broker mutex (via Publish)
//
// Mutators never touch a stripe mutex directly: they run in a txn (see
// txn.go), which takes one pod stripe and then one node stripe on demand
// — or the whole ladder via lockWorld for the gang operations — and
// whose end is the write path's only unlock site. Every stripe a txn
// takes stays held through its publishes, so a release of capacity is
// published under the node stripe exactly like a charge. Cross-shard
// readers (SnapshotNow, ListAndWatchBatch) take lockWorld themselves; a
// subscription registers under the broker mutex alone. The per-object
// read accessors lock a single stripe around a map lookup and hand out
// the stored version, which no commit writes again (it stores a new one,
// txn.nextVersion). pendingMu
// guards an index of which pods are pending (pending.go), not an order: a
// commit holds it for one map insert or delete, the depth readers for a
// few counters, and the whole-queue readers (VisitPending, VisitPendingN,
// PendingPods) to copy the names out, unsorted, before they visit those
// pods one stripe at a time.
// A scheduling pass reads its own queue (internal/core) and takes
// pendingMu no more. So pendingMu is only ever acquired while holding
// stripes or none, never the reverse.
//
// The gang records' resMu (see Server) sits outside the ladder
// entirely: it is a strict leaf, locked and unlocked without ever
// acquiring another lock while held, so it may be taken from any rung —
// including while the world is held. Reads of a pod's permit are stable
// under that pod's stripe because every record change for a member
// happens while its stripe (or the world) is held.
const numStripes = 64

// podShard is one stripe of the pod map. Padded so neighbouring
// stripes' mutexes do not share a cache line (the whole point of
// striping is that unrelated binds do not contend).
type podShard struct {
	mu   sync.Mutex
	pods map[string]*api.Pod
	_    [48]byte
}

// nodeShard is one stripe of the node map plus the committed-request
// accounting for the nodes in it: a bind's admission check, committed
// bookkeeping and pod-binding commit all happen under one node stripe
// (and the pod's stripe) — never a global lock.
type nodeShard struct {
	mu    sync.Mutex
	nodes map[string]*api.Node
	// committed tracks, per node in this stripe, the summed resource
	// requests of its live bound pods — the authoritative request-based
	// accounting Bind admission validates against in O(requested
	// resources) instead of walking every pod. Maintained on bind,
	// terminal transition and preemption.
	committed map[string]resource.List
	_         [40]byte
}

// stripeFor hashes a name onto a stripe index (FNV-1a, masked).
func stripeFor(name string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return h & (numStripes - 1)
}

// podShardFor returns the stripe owning the named pod.
func (s *Server) podShardFor(name string) *podShard {
	return &s.podShards[stripeFor(name)]
}

// nodeShardFor returns the stripe owning the named node.
func (s *Server) nodeShardFor(name string) *nodeShard {
	return &s.nodeShards[stripeFor(name)]
}

// lockWorld acquires every stripe in the fixed global order (pod
// stripes ascending, then node stripes ascending) — the stop-the-world
// ladder cross-shard readers and world-form transactions use. While the
// world is held no mutation is in flight and every event is published
// under a stripe, so the state read under lockWorld is exactly the prefix
// of the watch stream up to the broker's head. That includes the pending
// index, which only ever changes under a pod stripe; pendingMu stays a
// per-access lock below the stripes, the same for a world holder as for a
// single-stripe one.
func (s *Server) lockWorld() {
	for i := range s.podShards {
		s.podShards[i].mu.Lock()
	}
	for i := range s.nodeShards {
		s.nodeShards[i].mu.Lock()
	}
}

// unlockWorld releases the world ladder in reverse order.
func (s *Server) unlockWorld() {
	for i := len(s.nodeShards) - 1; i >= 0; i-- {
		s.nodeShards[i].mu.Unlock()
	}
	for i := len(s.podShards) - 1; i >= 0; i-- {
		s.podShards[i].mu.Unlock()
	}
}
