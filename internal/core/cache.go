package core

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/minheap"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// ClusterCache is the scheduler's event-driven model of the cluster. It
// builds itself once from an apiserver.ListAndWatchBatch snapshot and then
// applies watch events — adding a pod's fused usage to its node on bind,
// removing it on terminal transitions, re-fusing on metric and maturity
// changes — instead of re-deriving every node from every pod and every
// series each pass (the from-scratch way, which survives as the test
// oracle, oracle_test.go). Schedulers read it through incremental views
// (NewView, SyncView): a sync costs O(nodes changed since the view's last
// sync), independent of how many pods are bound, so a pass over a
// mostly-idle 10k-pod cluster no longer pays for the 10k.
//
// Three inputs can move a node's fused usage between passes without any
// API-server event:
//
//   - a metric write changes a pod's window peak — the WindowMax
//     aggregator's change callback re-fuses the pod immediately;
//   - a pod's peak ages out of the sliding window — SyncView runs the
//     aggregator's expiry-heap Refresh first, which fires the same
//     callback for exactly the series that decayed;
//   - a young pod matures past the metrics lag and stops being charged
//     max(measured, requested) — pods register their maturity instant in
//     a min-heap that SyncView drains up to now.
//
// With a synchronous-watch server all callbacks run on the mutating
// goroutine, so under the simulation clock the cache is deterministic;
// the oracle is the from-scratch reference implementation it is
// property-tested against. With an async-watch server the broker's pump
// feeds ApplyAll batches on a separate goroutine (the cache lags the
// server by a bounded amount), and a cache that falls off the broker
// ring resyncs from a fresh snapshot — state after the resync is
// property-tested identical to a from-scratch build.
type ClusterCache struct {
	clk clock.Clock
	srv *apiserver.Server
	agg *monitor.WindowMax // nil when usage-aware scheduling is off
	lag time.Duration

	mu    sync.Mutex
	rev   int64 // latest applied resource version (events at or below are dropped)
	nodes map[string]*cachedNode
	names []string // node names, sorted
	pods  map[string]*cachedPod
	// free lists the recycled records of departed pods (through next), and
	// chunk holds records carved but never used; a bind carves podChunk
	// more only when both are empty, so free never holds more records than
	// the peak live count. A resync drops both with every index.
	free  *cachedPod
	chunk []cachedPod
	// groups indexes tracked pods (bound and permit-holding alike) by pod
	// group, cluster-wide — the preemption planner evicts a gang wholesale
	// or not at all, so it needs every member's priority and charge, not
	// just the ones on the candidate node.
	groups   map[string]map[string]*cachedPod
	maturity minheap.Heap[string] // pod names at their maturity instants
	unsub    func()
	// prioCount counts live bound pods per priority tier and prios keeps
	// the occupied tiers sorted ascending; the preemption planner
	// consults them to skip victim searches in O(1) when no strictly
	// lower tier is occupied anywhere (the common priority-free case —
	// this gate runs once per unschedulable pod per pass).
	prioCount map[int32]int
	prios     []int32
	// beCount counts live tracked pods that declared the best-effort
	// workload class — the always-preemption-eligible tier. Like prios it
	// feeds the O(1) per-pass preemption gate: a class allowed to take
	// best-effort victims only plans victim searches when at least one
	// such pod is charged somewhere.
	beCount int
	// gangLeft counts gang members that stopped being tracked. A departure
	// can make the rest of its gang evictable on other nodes without any
	// node's headroom rising (the member was charged nothing, or ran on a
	// node no view holds), so SyncView counts it as a loosening.
	gangLeft uint64

	// queues is the scheduling order (queue.go): one queue per
	// Spec.SchedulerName, holding exactly the pods whose latest event shows
	// them Pending with no node. queueSeq stamps the next push; it never
	// restarts, not even on a resync, so a walk opened before a resync sees
	// none of the entries the resync queued.
	queues   map[string]*podQueue
	queueSeq uint64

	// Change journal for incremental views (SyncView): the names of nodes
	// whose scheduling-relevant state changed, in change order.
	// journalBase is the absolute offset of journal[0] — entries older
	// than it were compacted away and force a full rebuild on views that
	// have not synced past them. viewEpoch invalidates all views when the
	// cache re-primes from a snapshot.
	viewEpoch   uint64
	journal     []string
	journalBase int64
}

// cachedNode is the incrementally maintained per-node state.
type cachedNode struct {
	name        string
	sgx         bool
	schedulable bool // Ready && !Unschedulable
	allocatable resource.List
	memUsed     int64 // fused memory bytes of live bound pods
	epcUsed     int64 // fused EPC pages of live bound pods
	reqEPC      int64 // requested EPC pages of live bound pods (device accounting)
	// pods heads the list, through cachedPod.prev/next, of the live bound
	// pods charged to this node, so the preemption planner enumerates
	// victims in O(node pods); insert and remove are O(1) and allocate
	// nothing. The order is arbitrary: victimsBelow sorts.
	pods *cachedPod
}

// cachedPod tracks one live bound pod and its current fused contribution
// to its node, so a later transition can subtract exactly what was added.
// The cache owns the record: only c.pods, its node's list and (for a gang
// member) c.groups reach it, victimInfo and the maturity heap copying
// what they need, so removePodLocked zeroes it onto the free list once it
// has left all three, and the next bind reuses it.
type cachedPod struct {
	name      string
	node      string
	group     string // pod group ("" for solo pods)
	priority  int32
	reqMem    int64
	reqEPC    int64
	startedAt time.Time
	memBytes  int64 // fused contribution currently charged to the node
	epcPages  int64
	// reserved marks a gang member holding a conditional permit: its
	// capacity is committed on the node (charged here exactly like a
	// bind) but the pod is still unbound in authoritative state. A
	// PodBound event flips it; PodPermitReleased removes it.
	reserved bool
	// bestEffort marks a pod that *declared* the best-effort workload
	// class in its spec, making it preemption-eligible regardless of
	// priority tier. Every scheduler watching the cluster reads the same
	// declared field, so eviction eligibility is identical across them.
	bestEffort bool
	// prev and next link the node's list; next also links the free list.
	prev, next *cachedPod
}

const podChunk = 64 // records carved at once

// newClusterCache performs the informer handshake against the API server
// and primes the cache from the snapshot. The aggregator is nil exactly
// when usage-aware scheduling is off, and the cache then fuses from
// requests alone; a non-nil one must already be backfilled, and the
// caller wires its change callback to onMetric afterwards. Events arrive
// through the watch broker in batches (ApplyAll), pod and node events
// alike in rev order.
// If the cache ever falls off the ring — possible only with an
// async-watch server — it resyncs from a fresh snapshot instead of
// missing deltas.
func newClusterCache(clk clock.Clock, srv *apiserver.Server, agg *monitor.WindowMax, lag time.Duration) *ClusterCache {
	c := &ClusterCache{clk: clk, srv: srv, agg: agg, lag: lag}
	// Events arriving while the snapshot is being applied block on c.mu;
	// anything already reflected in the snapshot is dropped by the rev
	// gate when it is delivered.
	c.mu.Lock()
	defer c.mu.Unlock()
	snap, unsub := srv.ListAndWatchBatch(c.ApplyAll, c.resync)
	c.unsub = unsub
	c.primeLocked(snap)
	return c
}

// primeLocked (re)builds the cache from a consistent snapshot,
// discarding all previous state. Caller must hold c.mu.
func (c *ClusterCache) primeLocked(snap apiserver.Snapshot) {
	c.rev = snap.Rev
	// Incremental views synced against the previous state are now
	// meaningless: bump the epoch so their next SyncView rebuilds.
	c.viewEpoch++
	c.journal = c.journal[:0]
	c.journalBase = 0
	c.nodes = make(map[string]*cachedNode, len(snap.Nodes))
	c.names = c.names[:0]
	c.pods = make(map[string]*cachedPod, len(snap.Pods))
	c.free, c.chunk = nil, nil
	c.groups = make(map[string]map[string]*cachedPod)
	c.maturity = c.maturity[:0]
	c.prioCount = make(map[int32]int)
	c.prios = c.prios[:0]
	c.beCount = 0
	for _, n := range snap.Nodes {
		c.upsertNodeLocked(n)
	}
	now := c.clk.Now()
	for _, p := range snap.Pods {
		c.addPodLocked(p, now, false)
	}
	c.primeQueuesLocked(snap)
	// A permit holder is unbound in the snapshot's pod state, but its
	// capacity is committed on the permit's node: charge it there, as its
	// PodPermitHeld event did.
	for _, pm := range snap.Permits {
		held := *snapshotPod(snap, pm.Pod)
		held.Spec.NodeName = pm.Node
		c.addPodLocked(&held, now, true)
	}
}

// snapshotPod finds a pod of the snapshot by name; a snapshot's Pending
// and Permits name only pods it holds.
func snapshotPod(snap apiserver.Snapshot, name string) *api.Pod {
	i := sort.Search(len(snap.Pods), func(i int) bool { return snap.Pods[i].Name >= name })
	return snap.Pods[i]
}

// resync is the broker's ring-overflow recovery: the cache missed
// events, so the incremental state is unusable — rebuild it from the
// fresh snapshot, exactly as at the original handshake. Delivery
// resumes with the first event after snap.Rev.
func (c *ClusterCache) resync(snap apiserver.Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.primeLocked(snap)
}

// Close detaches the cache from the API server watch.
func (c *ClusterCache) Close() {
	if c.unsub != nil {
		c.unsub()
		c.unsub = nil
	}
}

// Refresh drains the time-driven state: expired window peaks re-announce
// through the aggregator's expiry heap and matured pods re-fuse. Every
// SyncView starts with it; it must also run periodically when there is
// nothing to schedule — the expiry and maturity heaps are only emptied
// here, so skipping it on idle passes would let them (and decayed series)
// grow for as long as metrics flow. Cost is O(entries that actually
// expired since the last call).
func (c *ClusterCache) Refresh() {
	if c.agg != nil {
		c.agg.Refresh()
	}
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refreshMaturityLocked(now)
}

// maxViewJournal bounds the change journal. When it fills, the oldest
// half is dropped; views that had not synced past the dropped prefix
// rebuild from scratch on their next SyncView instead of replaying.
const maxViewJournal = 1 << 15

// touchLocked records that a node's scheduling-relevant state changed so
// incremental views re-copy it on their next sync. Every change appends:
// collapsing even adjacent duplicates would keep the journal tip from
// advancing while state keeps changing, and a view already synced past
// the collapsed entry would never re-copy the node. Caller must hold
// c.mu.
func (c *ClusterCache) touchLocked(node string) {
	if len(c.journal) >= maxViewJournal {
		half := len(c.journal) / 2
		c.journalBase += int64(half)
		c.journal = append(c.journal[:0], c.journal[half:]...)
	}
	c.journal = append(c.journal, node)
}

// NewView returns an empty incremental view bound to this cache; the
// first SyncView populates it. The view recycles its NodeViews (and
// their maps) across syncs, so a long-lived scheduler's per-pass sync
// cost is O(nodes that changed since its last pass) — the pooled
// copy-on-write path. Every NodeView is the view's own copy (Allocatable
// included), so nothing done to a view reaches the cache or another
// view; the view must only be mutated through Commit, and only by one
// pass at a time.
func (c *ClusterCache) NewView() *ClusterView {
	return newIndexedView()
}

// SyncView brings an incremental view current: time-dependent state is
// refreshed first (window decay, maturity transitions — see Refresh),
// then the nodes journalled since the view's last sync are re-copied
// (insert, update+re-bucket, or drop). Views from another epoch, or too
// stale to replay cheaply, rebuild in O(cluster).
func (c *ClusterCache) SyncView(v *ClusterView) {
	c.Refresh()
	c.mu.Lock()
	defer c.mu.Unlock()
	tip := c.journalBase + int64(len(c.journal))
	if v.epoch != c.viewEpoch || v.syncedTo < c.journalBase ||
		tip-v.syncedTo > int64(2*len(c.nodes)+16) {
		c.rebuildViewLocked(v)
		return
	}
	for _, name := range c.journal[v.syncedTo-c.journalBase:] {
		cn, ok := c.nodes[name]
		if !ok || !cn.schedulable {
			v.dropNode(name)
			continue
		}
		v.setNode(name, cn.sgx, cn.allocatable, cn.memUsed, cn.epcUsed,
			cn.allocatable.Get(resource.EPCPages)-cn.reqEPC)
	}
	v.syncedTo = tip
	if v.gangLeft != c.gangLeft {
		v.gangLeft = c.gangLeft
		v.loosened++
	}
}

// rebuildViewLocked repopulates an incremental view from scratch in node
// name order, recycling its pooled NodeViews. Caller must hold c.mu.
func (c *ClusterCache) rebuildViewLocked(v *ClusterView) {
	v.recycleAll()
	for _, name := range c.names {
		cn := c.nodes[name]
		if !cn.schedulable {
			continue
		}
		n := v.takeNodeView(name)
		v.fillNode(n, cn.sgx, cn.allocatable, cn.memUsed, cn.epcUsed,
			cn.allocatable.Get(resource.EPCPages)-cn.reqEPC)
		v.Nodes = append(v.Nodes, n)
		v.byName[name] = n
		v.idx.insert(n)
	}
	v.epoch = c.viewEpoch
	v.syncedTo = c.journalBase + int64(len(c.journal))
	v.gangLeft = c.gangLeft
}

// ApplyAll applies a batch of consecutive watch events under one lock
// acquisition, with a single maturity-heap settle at the end — the
// batched ingest the broker's pump delivery feeds. Events at or below
// the cache's resource version are already reflected and dropped.
func (c *ClusterCache) ApplyAll(evs []apiserver.WatchEvent) {
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range evs {
		c.applyLocked(&evs[i], now)
	}
	// One settle per batch: matured pods re-fuse here rather than per
	// event. SyncView refreshes again anyway, so this only keeps the
	// heap from accumulating across large async batches.
	c.refreshMaturityLocked(now)
}

// applyLocked applies one watch event. Caller must hold c.mu.
func (c *ClusterCache) applyLocked(ev *apiserver.WatchEvent, now time.Time) {
	if ev.Rev <= c.rev {
		return
	}
	c.rev = ev.Rev
	switch ev.Type {
	case apiserver.NodeRegistered, apiserver.NodeUpdated:
		c.upsertNodeLocked(ev.Node)
	case apiserver.PodBound:
		c.addPodLocked(ev.Pod, now, false)
	case apiserver.PodPermitHeld:
		// A gang member's conditional reservation: capacity committed on
		// the node (the event pod carries the reserved node in its spec)
		// while the pod stays unbound. Charged exactly like a bind so
		// passes see the held headroom.
		c.addPodLocked(ev.Pod, now, true)
	case apiserver.PodPermitReleased:
		// Whole-gang rollback (permit timeout or preemption of held
		// members): the reservation's charge comes off the node.
		if cp, ok := c.pods[ev.Pod.Name]; ok && cp.reserved {
			c.removePodLocked(cp)
		}
	case apiserver.PodUpdated:
		c.podUpdatedLocked(ev.Pod, now)
	}
	if ev.Pod != nil {
		c.queueLocked(ev.Pod)
	}
}

// primeQueuesLocked rebuilds the queues from a snapshot's pending pods,
// which it files by priority (descending), then queue rev — the order the
// stream filed them in, internal/model's Pending order; the snapshot
// hands them over in none. The stamps continue where they stood, so a
// walk opened before the rebuild delivers nothing after it: nothing
// twice, and nothing that left the queue. Caller must hold c.mu.
func (c *ClusterCache) primeQueuesLocked(snap apiserver.Snapshot) {
	type queued struct {
		pod *api.Pod
		rev int64
	}
	pending := make([]queued, len(snap.Pending))
	for i, q := range snap.Pending {
		pending[i] = queued{snapshotPod(snap, q.Pod), q.Rev}
	}
	slices.SortFunc(pending, func(a, b queued) int {
		return cmp.Or(cmp.Compare(b.pod.Spec.Priority, a.pod.Spec.Priority), cmp.Compare(a.rev, b.rev))
	})
	c.queues = make(map[string]*podQueue)
	for _, q := range pending {
		c.queueLocked(q.pod)
	}
}

// queueLocked files a pod event into its scheduler's queue: a pod the
// event shows Pending with no node enters it at its tier's tail, unless it
// is queued already, and any other pod leaves it (a permit's event carries
// the reserved node). Caller must hold c.mu.
func (c *ClusterCache) queueLocked(p *api.Pod) {
	q := c.queues[p.Spec.SchedulerName]
	if p.Status.Phase != api.PodPending || p.Spec.NodeName != "" {
		if q != nil {
			q.remove(p)
		}
		return
	}
	if q == nil {
		q = &podQueue{buckets: make(map[int32]*queueBucket)}
		c.queues[p.Spec.SchedulerName] = q
	}
	if q.entry(p) != nil {
		return
	}
	q.push(queuedPod{pod: p, req: p.TotalRequests(), seq: c.queueSeq})
	c.queueSeq++
}

// walk opens a walk over the named scheduler's queue. Its horizon is fixed
// here: it delivers what is queued now and still queued when reached, and
// nothing queued later — a pod preempted and re-queued while the walk is
// open waits for the next one.
func (c *ClusterCache) walk(sched string) queueWalk {
	c.mu.Lock()
	horizon := c.queueSeq
	c.mu.Unlock()
	return queueWalk{sched: sched, cur: newQueueCursor(horizon)}
}

// pull appends the walk's next chunk to out (see podQueue.pull) and
// reports whether another pull may deliver more: false once the queue is
// exhausted, after which the walk is over.
func (c *ClusterCache) pull(w *queueWalk, out []queuedPod) ([]queuedPod, bool) {
	more := false
	c.mu.Lock()
	if q := c.queues[w.sched]; q != nil {
		out, more = q.pull(&w.cur, out)
	}
	c.mu.Unlock()
	return out, more
}

// dequeue takes the pods a pass committed out of their queue, each unless
// it left the queue, and perhaps re-entered it, since the walk handed it
// out. With a synchronous watch the commits' events have already done
// this; with an asynchronous one they may still be on their way, and the
// next pass must not attempt those pods again. The walk that handed them
// out never returns to them, so one lock at the pass's end serves all.
func (c *ClusterCache) dequeue(committed []queuedPod) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range committed {
		e := &committed[i]
		if q := c.queues[e.pod.Spec.SchedulerName]; q != nil {
			if cur := q.entry(e.pod); cur != nil && cur.seq == e.seq {
				q.remove(e.pod)
			}
		}
	}
}

// onMetric is the WindowMax change callback: a (pod, node) window peak
// moved, so re-fuse that pod if it is live and the series matches the
// node it actually runs on (stale series from before a drain change
// nothing, per Listing 1's GROUP BY pod_name, nodename).
func (c *ClusterCache) onMetric(_, pod, node string, _ float64, _ bool) {
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, ok := c.pods[pod]
	if !ok || cp.node != node {
		return
	}
	c.fusePodLocked(cp, now)
}

// upsertNodeLocked creates or updates a node's static fields; maintained
// usage sums carry over across updates.
func (c *ClusterCache) upsertNodeLocked(n *api.Node) {
	cn, ok := c.nodes[n.Name]
	if !ok {
		cn = &cachedNode{name: n.Name}
		c.nodes[n.Name] = cn
		i := sort.SearchStrings(c.names, n.Name)
		c.names = append(c.names, "")
		copy(c.names[i+1:], c.names[i:])
		c.names[i] = n.Name
	}
	cn.allocatable = n.Allocatable
	cn.sgx = n.HasSGX()
	cn.schedulable = n.Ready && !n.Unschedulable
	c.touchLocked(cn.name)
}

// addPodLocked starts tracking a live pod with a node to account against
// — a bind, or (reserved=true) a gang permit — and charges that node.
func (c *ClusterCache) addPodLocked(p *api.Pod, now time.Time, reserved bool) {
	if p.Spec.NodeName == "" || p.IsTerminal() {
		return
	}
	if cp, ok := c.pods[p.Name]; ok {
		// A PodBound for a tracked reservation is the gang commit: the
		// capacity charge is already on the node (Reserve committed it),
		// so only the tracking state flips.
		if cp.reserved && !reserved && cp.node == p.Spec.NodeName {
			cp.reserved = false
			if !cp.startedAt.Equal(p.Status.StartedAt) {
				cp.startedAt = p.Status.StartedAt
				c.pushMaturityLocked(cp, now)
				c.fusePodLocked(cp, now)
			}
		}
		return
	}
	if _, ok := c.nodes[p.Spec.NodeName]; !ok {
		// Bind validates the node, and node events precede pod events
		// referencing them; untracked nodes would also be invisible to
		// the oracle's from-scratch walk.
		return
	}
	req := p.TotalRequests()
	c.trackPodLocked(cachedPod{
		name:       p.Name,
		node:       p.Spec.NodeName,
		group:      p.Spec.PodGroup,
		priority:   p.Spec.Priority,
		reqMem:     req.Get(resource.Memory),
		reqEPC:     req.Get(resource.EPCPages),
		startedAt:  p.Status.StartedAt,
		reserved:   reserved,
		bestEffort: p.Spec.WorkloadClass() == api.ClassBestEffort,
	}, now)
}

// trackPodLocked registers a pod (whose node must exist) in a record of
// its own and charges its node.
func (c *ClusterCache) trackPodLocked(rec cachedPod, now time.Time) {
	if c.free == nil {
		if len(c.chunk) == 0 {
			c.chunk = make([]cachedPod, podChunk)
		}
		c.free, c.chunk = &c.chunk[0], c.chunk[1:]
	}
	cp := c.free
	c.free = cp.next
	*cp = rec
	cn := c.nodes[cp.node]
	c.pods[cp.name] = cp
	if cp.next = cn.pods; cp.next != nil {
		cp.next.prev = cp
	}
	cn.pods = cp
	if cp.group != "" {
		g := c.groups[cp.group]
		if g == nil {
			g = make(map[string]*cachedPod)
			c.groups[cp.group] = g
		}
		g[cp.name] = cp
	}
	if c.prioCount[cp.priority]++; c.prioCount[cp.priority] == 1 {
		i := sort.Search(len(c.prios), func(i int) bool { return c.prios[i] >= cp.priority })
		c.prios = append(c.prios, 0)
		copy(c.prios[i+1:], c.prios[i:])
		c.prios[i] = cp.priority
	}
	if cp.bestEffort {
		c.beCount++
	}
	cn.reqEPC += cp.reqEPC
	c.touchLocked(cp.node)
	c.fusePodLocked(cp, now)
	c.pushMaturityLocked(cp, now)
}

// podUpdatedLocked handles status transitions of a tracked pod. Terminal
// transitions and preemptions (the pod returns to the queue with its
// binding cleared) both remove the pod's charge from its node.
func (c *ClusterCache) podUpdatedLocked(p *api.Pod, now time.Time) {
	cp, ok := c.pods[p.Name]
	if p.IsTerminal() || p.Spec.NodeName == "" {
		if !ok {
			return // failed or preempted while never charged
		}
		c.removePodLocked(cp)
		return
	}
	if !ok {
		c.addPodLocked(p, now, false) // robustness: bound pods normally enter via PodBound
		return
	}
	if !cp.startedAt.Equal(p.Status.StartedAt) {
		cp.startedAt = p.Status.StartedAt
		c.pushMaturityLocked(cp, now)
	}
	c.fusePodLocked(cp, now)
}

// removePodLocked stops tracking a live bound pod, subtracting exactly
// what it was charged, and recycles its record.
func (c *ClusterCache) removePodLocked(cp *cachedPod) {
	cn := c.nodes[cp.node]
	cn.reqEPC -= cp.reqEPC
	cn.memUsed -= cp.memBytes
	cn.epcUsed -= cp.epcPages
	if cp.prev != nil {
		cp.prev.next = cp.next
	} else {
		cn.pods = cp.next
	}
	if cp.next != nil {
		cp.next.prev = cp.prev
	}
	delete(c.pods, cp.name)
	if cp.group != "" {
		if g := c.groups[cp.group]; g != nil {
			delete(g, cp.name)
			if len(g) == 0 {
				delete(c.groups, cp.group)
			}
		}
		c.gangLeft++
	}
	c.touchLocked(cp.node)
	if c.prioCount[cp.priority]--; c.prioCount[cp.priority] <= 0 {
		delete(c.prioCount, cp.priority)
		i := sort.Search(len(c.prios), func(i int) bool { return c.prios[i] >= cp.priority })
		c.prios = append(c.prios[:i], c.prios[i+1:]...)
	}
	if cp.bestEffort {
		c.beCount--
	}
	*cp = cachedPod{next: c.free}
	c.free = cp
}

// fusePodLocked recomputes a pod's fused usage at the current instant —
// the same measured-vs-requested fusion the oracle applies per pod per
// view — and moves the delta into its node's sums.
func (c *ClusterCache) fusePodLocked(cp *cachedPod, now time.Time) {
	var measuredMem, measuredEPC float64
	// Reserved pods are not running: any series under their name is stale
	// history from an earlier placement. Fuse from requests alone, the
	// same charge the oracle applies to reservations.
	if c.agg != nil && !cp.reserved {
		if v, ok := c.agg.Max(monitor.MeasurementMemory, cp.name, cp.node); ok {
			measuredMem = v
		}
		if v, ok := c.agg.Max(monitor.MeasurementEPC, cp.name, cp.node); ok {
			measuredEPC = v
		}
	}
	memBytes, epcPages := fuseUsage(cp.reqMem, cp.reqEPC, measuredMem, measuredEPC,
		cp.startedAt, now, c.lag, c.agg != nil)
	if memBytes == cp.memBytes && epcPages == cp.epcPages {
		return
	}
	cn := c.nodes[cp.node]
	cn.memUsed += memBytes - cp.memBytes
	cn.epcUsed += epcPages - cp.epcPages
	cp.memBytes, cp.epcPages = memBytes, epcPages
	c.touchLocked(cp.node)
}

// pushMaturityLocked registers the instant a started pod stops being
// young (request-floored); the next Refresh at or past it re-fuses the
// pod even if no metric event fires in between.
func (c *ClusterCache) pushMaturityLocked(cp *cachedPod, now time.Time) {
	if c.agg == nil || cp.startedAt.IsZero() {
		return
	}
	matureAt := cp.startedAt.Add(c.lag)
	if !matureAt.After(now) {
		return // already mature; fuseUsage saw that
	}
	c.maturity.Push(tsdb.UnixNanos(matureAt), cp.name)
}

// refreshMaturityLocked re-fuses every pod whose maturity instant has
// passed. Entries are lazy: pods that terminated or restarted with a new
// StartedAt are skipped.
func (c *ClusterCache) refreshMaturityLocked(now time.Time) {
	for at := tsdb.UnixNanos(now); len(c.maturity) > 0 && c.maturity[0].At <= at; {
		ent := c.maturity.Pop()
		cp, ok := c.pods[ent.Val]
		if !ok || cp.startedAt.IsZero() || tsdb.UnixNanos(cp.startedAt.Add(c.lag)) != ent.At {
			continue
		}
		c.fusePodLocked(cp, now)
	}
}

// victimInfo describes one eviction unit as preemption material: a solo
// bound pod, or (group != "") a whole gang that can only be evicted
// all-or-nothing. For a gang unit the charges are the members' summed
// contributions on the candidate node, the priority is the gang's
// highest member priority anywhere (every member must be outranked
// before the unit is evictable), and count is the cluster-wide member
// count the eviction would displace.
type victimInfo struct {
	name     string // pod name, or the group name for a gang unit
	group    string // "" for solo pods
	priority int32
	count    int   // pods displaced by evicting this unit
	memBytes int64 // fused memory currently charged to the node
	epcPages int64 // fused EPC pages currently charged to the node
	reqEPC   int64 // device items the unit's departure returns on this node
}

// preemptGate is the O(1) gate that lets scheduling passes skip victim
// searches entirely: the lowest priority tier occupied by a live tracked
// pod (anyBound=false when none is) — nothing can be preempted by a pod
// that does not outrank it, the common priority-free case — plus, under
// the same single lock, whether any live tracked pod declared the
// best-effort class (always preemption-eligible regardless of tier). The
// scheduler reads it once per pass rather than per pod, so the pass pays
// one lock, not one per unschedulable pod.
func (c *ClusterCache) preemptGate() (prio int32, anyBound, beBound bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.prios) == 0 {
		return 0, false, false
	}
	return c.prios[0], true, c.beCount > 0
}

// victimsBelow appends node's eviction units with priority strictly below
// prio to buf and returns it sorted by (priority ascending, name
// ascending) — the deterministic eviction-preference order: cheapest
// victims first, stable across runs. Solo pods are units of one; gang
// members collapse into one unit per group (evict the whole gang or
// none), eligible only when every member anywhere sits below prio.
// includeBE additionally admits pods that declared the best-effort
// workload class regardless of their tier (a gang unit needs every
// member eligible on one ground or the other) — the one sanctioned
// relaxation of the strictly-lower-priority invariant. groups is the
// caller's scratch for the node's gang names, returned for reuse, so an
// attempt allocates nothing however many gangs the node hosts.
func (c *ClusterCache) victimsBelow(node string, prio int32, includeBE bool, buf []victimInfo, groups []string) ([]victimInfo, []string) {
	c.mu.Lock()
	cn, ok := c.nodes[node]
	if !ok {
		c.mu.Unlock()
		return buf, groups
	}
	eligible := func(cp *cachedPod) bool {
		return cp.priority < prio || (includeBE && cp.bestEffort)
	}
	for cp := cn.pods; cp != nil; cp = cp.next {
		if cp.group != "" {
			groups = append(groups, cp.group)
			continue
		}
		if eligible(cp) {
			buf = append(buf, victimInfo{
				name:     cp.name,
				priority: cp.priority,
				count:    1,
				memBytes: cp.memBytes,
				epcPages: cp.epcPages,
				reqEPC:   cp.reqEPC,
			})
		}
	}
	// One unit per gang, however many members the node hosts; sorted, so
	// the walk below is deterministic too.
	slices.Sort(groups)
	groups = slices.Compact(groups)
	for _, g := range groups {
		members := c.groups[g]
		unit := victimInfo{name: g, group: g, count: len(members)}
		unitEligible := true
		first := true
		for _, m := range members {
			if !eligible(m) {
				unitEligible = false
				break
			}
			if first || m.priority > unit.priority {
				unit.priority = m.priority
				first = false
			}
			if m.node == node {
				unit.memBytes += m.memBytes
				unit.epcPages += m.epcPages
				unit.reqEPC += m.reqEPC
			}
		}
		if unitEligible {
			buf = append(buf, unit)
		}
	}
	c.mu.Unlock()
	// Keys are unique (names are), so the order is total. slices.SortFunc,
	// not sort.Slice: the planner calls this once per candidate node per
	// attempt, and sort.Slice allocates on every call.
	slices.SortFunc(buf, func(a, b victimInfo) int {
		if byTier := cmp.Compare(a.priority, b.priority); byTier != 0 {
			return byTier
		}
		return strings.Compare(a.name, b.name)
	})
	return buf, groups
}
