package core

import (
	"github.com/sgxorch/sgxorch/internal/resource"
)

// Preemption: when a pod finds no feasible node, the scheduler may evict
// strictly lower-priority pods to make room — the paper's FCFS queue
// (§IV) refined into priority tiers, so a high-priority SGX job does not
// starve behind EPC hogs. The planner works entirely on event-driven
// state — node headroom from the scheduler's own view, per-node victims
// from the cache behind it: per node it simulates removing the cheapest
// victims (lowest priority first, names breaking ties) until the pod
// fits, then reprieves every victim the fit can do without, preferring to
// spare the highest-priority ones. Across nodes it picks the fewest
// victims, then the lowest victim priorities, then the lowest node name —
// all deterministic, so identical cluster histories preempt identically.
//
// Invariants:
//   - only strictly lower-priority pods are ever evicted (equal tiers
//     never preempt each other) — with one declared exception: pods
//     whose spec names the best-effort workload class are eligible
//     victims for any preemption-capable class regardless of tier
//     (takeBE below), which is the contract that class signs up for;
//   - victims are returned to the pending queue (not failed) and
//     reschedule later on their own merits;
//   - a pod whose requests no victim set can satisfy preempts nothing and
//     simply stays queued;
//   - gang members are never evicted individually: a gang is one victim
//     unit, eligible only when every member everywhere is outranked, and
//     evicted wholesale through the API server's PreemptGroup (held
//     permits roll back, bound members re-queue) — partial placements
//     cannot be created by preemption any more than by placement.

// preempt tries to make room for the pod in the cycle, planning with the
// pipeline the pod actually schedules through (its class's, or the
// default). A pipeline with takeBE additionally admits declared
// best-effort pods as victims regardless of priority tier (workload
// classes' one sanctioned relaxation of the strictly-lower invariant; see
// victimsBelow). When a feasible victim set exists it returns the chosen
// node, having already asked the API server to evict the victims (the
// kubelet kills their workloads synchronously on the eviction event), and
// the cycle re-syncs its view and binds. victims is how many pods the
// server confirms it displaced — what the watch stream shows re-queued —
// which can fall short of the plan when a concurrent scheduler took the
// same victim or a victim finished first. node == "" means no feasible
// victim set exists; nothing is evicted then.
//
// dominated says the pass's failure memo (memo.go) proves no node has a
// victim set for this pod as long as the view has not loosened since: the
// gate and the sync still run, and the planner only if the sync loosened.
// clean reports a failure the memo may record: every node was planned and
// lacked eligible victims — none already fit the pod, and the pipeline
// vetoed no victim set (both depend on more than the request's size).
func (s *Scheduler) preempt(c *cycleState, dominated bool) (node string, victims int, clean bool) {
	pod, takeBE := &c.info, c.pl.takeBE
	// Re-check the gate against live state: the caller's per-pass gate
	// may be stale after earlier evictions in this pass.
	minPrio, anyBound, beBound := s.cache.preemptGate()
	if !(anyBound && minPrio < pod.Priority) && !(takeBE && beBound) {
		return "", 0, false
	}
	// Plan on the scheduler's own view, brought current first: by now it
	// may predate metric or eviction churn, and the victim charges — read
	// from the cache per node below — must match the node state they are
	// subtracted from. The planner only reads the view; evictions are
	// simulated on a scratch NodeView.
	view := s.syncedViewLocked()
	if dominated && c.memo.live(view) {
		return "", 0, true
	}

	// The §IV SGX-last rule binds preemption too: a standard pod may only
	// preempt its way onto SGX hardware when no non-SGX node has a
	// feasible victim set, no matter how cheap the SGX-node victims are.
	var bestNode string
	var bestSet []victimInfo
	clean = true
	plan := func(sgxNodes bool) {
		for _, n := range view.Nodes {
			if n.SGX != sgxNodes || !staticallyFeasible(pod, n) {
				continue
			}
			c.victims, c.groups = s.cache.victimsBelow(n.Name, pod.Priority, takeBE, c.victims[:0], c.groups[:0])
			set, ok := minimalVictimSet(pod, n, c.victims)
			if !ok {
				continue
			}
			// Replay the full pipeline against the node as it would look
			// after the evictions: a profile's pre-score or score plugins
			// may veto this node for reasons the victim math cannot see,
			// and an eviction such a pipeline would reject every pass must
			// never start (it would kill the victims without ever binding
			// the pod — and again next pass). An empty set means the pod
			// already fits: the §IV fit failed it on what the victim math
			// does not see (CPU), or a racing change made room; no
			// preemption, and the next pass binds normally.
			if len(set) == 0 || !s.placesOn(c, afterEvictions(n, set)) {
				clean = false
				continue
			}
			if bestNode == "" || betterVictimSet(set, bestSet) {
				bestNode = n.Name
				// Copy: set aliases the shared victim buffer, which the
				// next node's search reuses.
				bestSet = append(bestSet[:0], set...)
			}
		}
	}
	if pod.SGX {
		plan(true) // SGX pods can only ever fit SGX nodes
	} else {
		plan(false)
		if bestNode == "" {
			plan(true) // last resort, as in normal placement
		}
	}
	if bestNode == "" {
		return "", 0, clean
	}
	reason := "higher-priority pod " + pod.Pod.Name
	for _, v := range bestSet {
		// The eviction event synchronously re-queues the victim, makes the
		// kubelet kill its workload and release its devices, and removes
		// its charge from the cache. Failures (a victim racing to
		// completion, a concurrent scheduler evicting it first) are
		// benign — the cycle's fit re-check after its re-sync decides
		// whether the bind still happens — but they displaced nobody, so
		// only what the server confirms is counted.
		if v.group != "" {
			// All-or-nothing in both directions: the whole gang goes,
			// including members on other nodes and members still holding
			// permits. A refused group eviction reports zero members.
			n, _ := s.srv.PreemptGroup(v.group, reason)
			victims += n
			continue
		}
		if s.srv.Preempt(v.name, reason) == nil {
			victims++
		}
	}
	return bestNode, victims, false
}

// victimCount sums the pods displaced by a victim set — a gang unit
// displaces its whole cluster-wide membership, not one pod.
func victimCount(set []victimInfo) int {
	n := 0
	for _, v := range set {
		if v.count > 1 {
			n += v.count
			continue
		}
		n++
	}
	return n
}

// afterEvictions returns a scratch copy of the node as it would look with
// the victim set's charges released — what the planner hands placesOn. The
// view's own NodeView is never touched.
func afterEvictions(n *NodeView, set []victimInfo) *NodeView {
	var freedMem, freedEPC, freedDev int64
	for _, v := range set {
		freedMem += v.memBytes
		freedEPC += v.epcPages
		freedDev += v.reqEPC
	}
	return &NodeView{
		Name:        n.Name,
		SGX:         n.SGX,
		Allocatable: n.Allocatable,
		Used: resource.List{
			resource.Memory:   n.Used[resource.Memory] - freedMem,
			resource.EPCPages: n.Used[resource.EPCPages] - freedEPC,
		},
		FreeDevices: n.FreeDevices + freedDev,
	}
}

// staticallyFeasible reports whether the node could ever host the pod if
// it were empty: hardware capability and raw allocatable capacity. Usage
// and device headroom are the preemptable part; these bounds are not.
func staticallyFeasible(pod *PodInfo, node *NodeView) bool {
	return (!pod.SGX || node.SGX) && node.Allocatable.Fits(pod.Req)
}

// minimalVictimSet plans the evictions that make pod fit node. Victims
// arrive sorted by (priority asc, name asc); the greedy pass takes them
// in that order until the pod fits, and the reprieve pass then walks the
// chosen set backwards — sparing the most important victims first — and
// drops everyone the fit can do without, yielding a minimal set biased
// toward the fewest, lowest-priority victims. The returned slice aliases
// victims' backing array; it is empty, with ok true, when the pod already
// fits without victims. ok false means not even every victim is enough.
func minimalVictimSet(pod *PodInfo, node *NodeView, victims []victimInfo) (set []victimInfo, ok bool) {
	// Deficits the evictions must cover, from the node's fused usage and
	// device accounting. Resources other than memory and EPC (e.g. CPU)
	// are never charged by the cache, so the static check already settled
	// them.
	needMem := node.Used[resource.Memory] + pod.Req[resource.Memory] - node.Allocatable[resource.Memory]
	needEPC := node.Used[resource.EPCPages] + pod.EPCPages - node.Allocatable[resource.EPCPages]
	needDev := pod.EPCPages - node.FreeDevices
	fits := func(freedMem, freedEPC, freedDev int64) bool {
		return freedMem >= needMem && freedEPC >= needEPC && freedDev >= needDev
	}
	if fits(0, 0, 0) {
		return nil, true
	}

	var freedMem, freedEPC, freedDev int64
	chosen := 0
	for chosen < len(victims) && !fits(freedMem, freedEPC, freedDev) {
		v := victims[chosen]
		freedMem += v.memBytes
		freedEPC += v.epcPages
		freedDev += v.reqEPC
		chosen++
	}
	if !fits(freedMem, freedEPC, freedDev) {
		return nil, false
	}
	// Reprieve pass: drop victims the fit survives without, most
	// important (and latest-taken) first.
	set = victims[:chosen]
	for i := len(set) - 1; i >= 0; i-- {
		v := set[i]
		if fits(freedMem-v.memBytes, freedEPC-v.epcPages, freedDev-v.reqEPC) {
			freedMem -= v.memBytes
			freedEPC -= v.epcPages
			freedDev -= v.reqEPC
			set = append(set[:i], set[i+1:]...)
		}
	}
	return set, true
}

// betterVictimSet orders candidate victim sets across nodes: fewest
// displaced pods first (a gang unit counts its whole membership), then
// fewest units, then the lower priority vector compared from the most
// important victim down. Node-name order breaks full ties because nodes
// are visited sorted and only strict improvements replace the incumbent.
func betterVictimSet(a, b []victimInfo) bool {
	if ca, cb := victimCount(a), victimCount(b); ca != cb {
		return ca < cb
	}
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	// Both sets are sorted by priority ascending; compare from the top.
	for i := len(a) - 1; i >= 0; i-- {
		if a[i].priority != b[i].priority {
			return a[i].priority < b[i].priority
		}
	}
	return false
}
