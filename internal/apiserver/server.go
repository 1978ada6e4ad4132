// Package apiserver is the in-process equivalent of the Kubernetes API
// server: the source of truth for nodes and pods, which of them are
// pending (§IV, step Ì — the order they are scheduled in is each
// scheduler's own), and the notification hub that kubelets and
// schedulers subscribe to. Preempt returns a bound pod to the pending
// pods so higher-priority work can take its place.
//
// Bind is an admission-checked conditional commit (see Admission): with
// several optimistically concurrent schedulers sharing the cluster
// (§V-B), it re-validates against authoritative state that the pod still
// fits the target node and refuses stale placements with typed
// ErrConflict/ErrOutdated errors, so a losing scheduler retries instead
// of overcommitting a node.
//
// State is sharded, not globally locked: pods and nodes live in 64 lock
// stripes each (see stripe.go). Every mutator — CreatePod, Bind,
// Reserve, the lifecycle transitions, Preempt, node registration, the
// gang operations — runs in one commit transaction (txn, see txn.go):
// it takes one pod stripe and then one node stripe as the mutation
// needs them (or every stripe, for the gang operations), publishes each
// event while they are still held, and releases them at a single site,
// txn.end, before flushing the broker. Mutators never touch a stripe
// mutex or the broker directly, so the ordering that makes the watch
// stream trustworthy — nothing a commit changed is visible to another
// commit before its event is published, a release of capacity no less
// than a charge — cannot be got wrong per call site.
// A bind's whole commit (admission check, committed-request accounting,
// pod-binding mutation, event publish) thus runs under exactly one pod
// stripe and one node stripe, and binds against different nodes proceed
// in parallel on different cores. One global point keeps what must stay
// totally ordered: the watch broker draws each event's resource version
// under its own mutex as it appends the event, so the watch stream — the
// server's only record of a commit — remains a single coherent history
// even though commits run concurrently. Cross-shard readers — snapshots,
// the informer handshake, resync — take every stripe in a fixed
// ascending order (lockWorld); with the world held no commit is in
// flight, which is exactly what makes a snapshot a consistent prefix of
// the watch stream.
//
// Watchers attach in one of four ways. Subscribe (a per-event callback),
// SubscribeBatch (a batch callback and an optional resync handler) and
// the informer-style ListAndWatchBatch differ in what the caller
// supplies, not in what it is sent: the whole stream, every pod and node
// event in rev order. ListAndWatchBatch additionally couples a
// consistent snapshot to the event stream atomically: every event
// carries a monotonically increasing resource version, so a consumer
// building a cache from the snapshot discards anything already reflected
// in it and stays exactly consistent without quiescing the server.
// SubscribeNode, the kubelet's watch, is sent one node's sub-sequence of
// that stream, in the same order: each event is published under the node
// it concerns (see txn.publish).
//
// Event fan-out rides the internal/watch broker — one versioned ring
// buffer with per-subscriber cursors — so a mutation's critical section
// performs an O(1) event append and never runs subscriber code. In the
// default synchronous mode the publishing goroutine delivers inline
// (deterministic under the simulation clock, exactly like the
// historical callback list; among concurrent committers, whichever
// holds the broker's flush delivers for all); WithAsyncWatch moves
// delivery onto per-subscriber pump goroutines with batching and
// snapshot resync for consumers that fall off the ring.
//
// The paper's components "interact with [Kubernetes] using its public API"
// (§V); this package provides that API for the simulated cluster.
package apiserver

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/watch"
)

// Errors returned by API operations.
var (
	// ErrAlreadyExists is returned when creating an object whose name is
	// taken.
	ErrAlreadyExists = errors.New("apiserver: object already exists")
	// ErrNotFound is returned for lookups of unknown objects.
	ErrNotFound = errors.New("apiserver: object not found")
	// ErrInvalid is returned when creating an object the API cannot
	// represent: a pod with a negative resource request or limit.
	ErrInvalid = errors.New("apiserver: invalid object")
	// ErrConflict is returned for state transitions that are not legal,
	// e.g. binding an already bound pod, or binding onto a node that is
	// cordoned or NotReady.
	ErrConflict = errors.New("apiserver: conflicting state transition")
	// ErrOutdated is returned when a bind fails capacity admission: the
	// cluster state the scheduler planned against no longer holds (a
	// concurrent scheduler won the race for the node's capacity). It is a
	// specialization of ErrConflict — errors.Is(err, ErrConflict) matches
	// too — so optimistic schedulers can treat both as "lost the race,
	// retry from a fresh view".
	ErrOutdated = fmt.Errorf("%w: scheduler view outdated", ErrConflict)
)

// Admission selects how much re-validation Bind performs against
// authoritative pod/node state before committing a binding. With several
// optimistically concurrent schedulers sharing one cluster (§V-B), each
// plans against its own — possibly stale — cache; the conditional bind is
// the transaction commit that decides the race instead of letting the
// loser silently overcommit a node.
type Admission int

const (
	// AdmitGuarded (the default) enforces the invariants that must hold
	// regardless of scheduling policy: the target node is known, Ready and
	// schedulable; SGX pods only land on SGX nodes; the per-node sum of
	// EPC page-item requests never exceeds the device count (§V-A: no EPC
	// over-commitment — the device plugin would fail the pod at admission
	// anyway, so the server turns that failure into a retryable conflict);
	// and each request fits the node's total allocatable. Memory/CPU
	// request *sums* are deliberately not enforced: usage-aware scheduling
	// (§V-B) overcommits requests by design, reclaiming headroom from
	// over-declaring jobs, and the server has no usage data to arbitrate
	// with.
	AdmitGuarded Admission = iota
	// AdmitStrict additionally enforces memory and CPU request-sum
	// admission (committed requests + pod requests <= allocatable). It is
	// the right mode for fleets of request-only schedulers — there the
	// request sum is exactly the invariant every scheduler believes it is
	// maintaining, so a stale cache can never overcommit a node.
	AdmitStrict
)

// Option configures a Server.
type Option func(*Server)

// WithAdmission selects the bind admission mode (AdmitGuarded by
// default).
func WithAdmission(mode Admission) Option {
	return func(s *Server) { s.admission = mode }
}

// WithAsyncWatch selects asynchronous event delivery: watch events are
// appended to the broker ring inside the commit critical section (O(1))
// and fanned out to subscribers on per-subscriber pump goroutines, in
// batches. Mutating calls no longer wait for subscribers, so bind
// throughput scales with concurrent schedulers — at the price of
// consumers observing state with a small, bounded lag (and resyncing
// from a snapshot when they fall off the ring). The default synchronous
// mode delivers inline on the mutating goroutine and stays bit-for-bit
// deterministic under the simulation clock.
func WithAsyncWatch() Option {
	return func(s *Server) { s.watchOpts.Mode = watch.Async }
}

// WithWatchCapacity overrides the broker's ring capacity (the retained
// event window; watch.DefaultCapacity when unset). Tests use tiny rings
// to force the overflow/resync path.
func WithWatchCapacity(n int) Option {
	return func(s *Server) { s.watchOpts.Capacity = n }
}

// WithWatchBatch overrides the maximum events delivered to a subscriber
// callback in one batch (watch.DefaultMaxBatch when unset).
func WithWatchBatch(n int) Option {
	return func(s *Server) { s.watchOpts.MaxBatch = n }
}

// BindStats counts Bind outcomes, separating the rejection classes so a
// multi-scheduler experiment can report its conflict rate.
type BindStats struct {
	// Attempts counts all Bind calls; Bound the successful ones.
	Attempts int64
	Bound    int64
	// RejectedPodState counts binds refused over the pod's state: unknown
	// pod, already bound, or not Pending.
	RejectedPodState int64
	// RejectedNodeState counts binds refused because the node cannot
	// host the pod: unknown, NotReady or cordoned (the scheduler raced a
	// drain), lacking SGX capability for an SGX pod, or statically too
	// small for the pod's requests.
	RejectedNodeState int64
	// RejectedCapacity counts binds refused by capacity admission
	// (ErrOutdated): a concurrent scheduler won the node's headroom.
	RejectedCapacity int64
}

// bindCounters is the internal atomic representation of BindStats:
// stats reads never contend with the striped commit path, and
// commit-side increments are race-free without any shared lock.
type bindCounters struct {
	attempts          atomic.Int64
	bound             atomic.Int64
	rejectedPodState  atomic.Int64
	rejectedNodeState atomic.Int64
	rejectedCapacity  atomic.Int64
}

func (c *bindCounters) snapshot() BindStats {
	return BindStats{
		Attempts:          c.attempts.Load(),
		Bound:             c.bound.Load(),
		RejectedPodState:  c.rejectedPodState.Load(),
		RejectedNodeState: c.rejectedNodeState.Load(),
		RejectedCapacity:  c.rejectedCapacity.Load(),
	}
}

// WatchEventType enumerates notification kinds.
type WatchEventType int

// Watch event types.
const (
	// PodCreated fires when a pod enters the pending queue.
	PodCreated WatchEventType = iota + 1
	// PodBound fires when a scheduler binds a pod to a node; kubelets
	// react to it (§IV step Î: deployment towards the nodes).
	PodBound
	// PodUpdated fires on pod status changes.
	PodUpdated
	// NodeRegistered fires when a node joins the cluster.
	NodeRegistered
	// NodeUpdated fires on node status/allocatable changes.
	NodeUpdated
	// PodPermitHeld fires when a gang member takes a conditional
	// reservation (Reserve): capacity is committed on the node but the
	// pod is not bound. The event's pod copy carries the reserved node in
	// Spec.NodeName so caches can charge it, even though authoritative
	// state keeps the pod unbound until CommitGroup.
	PodPermitHeld
	// PodPermitReleased fires when a reservation is rolled back
	// (ReleaseGroup): the capacity returns and the pod re-enters the
	// pending queue.
	PodPermitReleased
)

// WatchEvent is delivered to subscribers on state changes. Pod and Node
// are the stored versions the commit made — immutable, safe to retain,
// and the same pointers GetPod, GetNode, the lists and a Snapshot hand
// out until a later commit stores the next version. A later commit never
// shows through one (PodPermitHeld's pod alone is the event's own copy,
// carrying the permit's node). Versions of a pod share its
// Spec.Containers slice; nothing may write through it, and a
// consumer that needs a pod or node it may edit clones it
// (api.Pod.Clone, api.Node.Clone). Rev is the server's resource version
// at the mutation: revisions increase by one per event, so a cache built
// from a ListAndWatchBatch snapshot can discard events already reflected
// in it (Rev <= Snapshot.Rev) without racing concurrent mutations.
type WatchEvent struct {
	Type WatchEventType
	Rev  int64
	Pod  *api.Pod
	Node *api.Node
}

// Snapshot is a consistent point-in-time view of the cluster state, as
// returned by ListAndWatchBatch. Rev is the resource version of the last
// mutation included in it. Everything in it — permits included — is read
// under the world ladder, so it is the watch stream's state at Rev. Its
// nodes and pods are the stored versions, read-only like an event's.
type Snapshot struct {
	Rev   int64
	Nodes []*api.Node // sorted by name
	Pods  []*api.Pod  // sorted by name
	// Pending holds the queued pods across all schedulers with their
	// queue revs, order unspecified; a scheduler orders its own queue.
	Pending []Queued
	// Permits holds the gang permits, sorted by pod: a permit holder is
	// unbound and Pending in Pods, but its capacity is committed on the
	// permit's node, as its PodPermitHeld event said.
	Permits []Permit
}

// Queued is a pending pod of a Snapshot beside its queue rev: the rev of
// the event that put it in the queue (internal/model's QueuedAt).
type Queued struct {
	Pod string
	Rev int64
}

// Server is the in-memory API server. See the package comment and
// stripe.go for the sharded-state layout and lock ordering.
type Server struct {
	clk clock.Clock

	admission Admission
	watchOpts watch.Options

	// broker is the versioned event fan-out (see internal/watch): every
	// mutation appends its watch event to the ring while still holding
	// its state stripes (txn.publish) — an O(1) operation that fixes the
	// event's place in the global order without ever running subscriber
	// code inside the commit critical section — and delivery happens
	// afterwards (txn.end): inline via Flush in synchronous mode, on
	// per-subscriber pumps in async mode. The broker mutex is the
	// innermost lock; subscriber callbacks run with no server lock held.
	broker *watch.Broker[WatchEvent]

	nextUID atomic.Int64
	live    atomic.Int64 // pods not yet terminal: AllTerminal reads it

	// podShards/nodeShards are the striped state maps (see stripe.go):
	// a bind touches exactly one stripe of each.
	podShards  [numStripes]podShard
	nodeShards [numStripes]nodeShard

	// pending indexes which pods are pending (see pendingIndex): a bind
	// takes its pod out with one map delete. Guarded by pendingMu, which is
	// acquired while holding state stripes but never the reverse (the
	// whole-queue readers copy names out under pendingMu alone).
	pendingMu sync.Mutex
	pending   pendingIndex

	binds bindCounters

	// metrics is the optional registry instrumentation (WithTelemetry):
	// bind commit latency and per-class rejection counters on the commit
	// path, queue-depth and watch-lag gauges via pull-time collectors.
	// Nil when telemetry is off — every hot-path site is a nil check.
	metrics *srvMetrics

	// gangs is the one record of each pod group (gang.go): its permits,
	// its live bound members and how many members finished — what the gang
	// director reads in one GangCounts call and a snapshot lists as
	// Permits. resMu guards it. It is a leaf lock: acquired and released
	// without ever taking another lock while held, so it may be taken from
	// any point of the ladder. Every record change additionally happens
	// while holding the member's pod stripe (or the world), which is what
	// makes a read under a pod stripe stable.
	resMu sync.Mutex
	gangs map[string]*gangRecord
}

// New creates an empty API server with guarded bind admission and
// synchronous watch delivery.
func New(clk clock.Clock, opts ...Option) *Server {
	s := &Server{
		clk:     clk,
		pending: newPendingIndex(),
		gangs:   make(map[string]*gangRecord),
	}
	for _, o := range opts {
		o(s)
	}
	for i := range s.podShards {
		s.podShards[i].pods = make(map[string]*api.Pod)
	}
	for i := range s.nodeShards {
		s.nodeShards[i].nodes = make(map[string]*api.Node)
		s.nodeShards[i].committed = make(map[string]resource.List)
	}
	s.broker = watch.New[WatchEvent](s.watchOpts)
	return s
}

// Close shuts the watch broker down (async pumps exit). The server's
// state remains readable; further mutations stop emitting events and
// draw no resource version (a pod queued after Close has queue rev 0).
func (s *Server) Close() {
	s.broker.Close()
}

// BindStats returns a copy of the bind outcome counters. Lock-free: the
// counters are atomics, so stats polling never slows the commit path.
func (s *Server) BindStats() BindStats {
	return s.binds.snapshot()
}

// Committed returns a copy of the summed resource requests of the named
// node's live bound pods — the request accounting Bind admission
// enforces.
func (s *Server) Committed(nodeName string) resource.List {
	sh := s.nodeShardFor(nodeName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.committed[nodeName]
}

// Subscribe registers a per-event watch callback for the whole stream
// and returns an unsubscribe function. In synchronous mode callbacks run
// on a goroutine performing a mutation — the one holding the broker's
// flush, which delivers concurrent committers' events with its own —
// after the state stripes are released, and must not synchronously
// mutate the server (use clock.AfterFunc for follow-ups); in async mode
// they run on a pump goroutine. Events arrive in resource-version order
// with no duplicates. No callback starts after unsubscribe returns;
// async mode also waits for one in flight (unless called from it),
// synchronous mode does not — see internal/watch. A subscriber that
// falls off the broker ring in async mode has the missed interval
// counted in its watch stats and continues from the oldest retained
// event — consumers that must never miss events should use
// SubscribeBatch or ListAndWatchBatch with a resync handler.
func (s *Server) Subscribe(fn func(WatchEvent)) (unsubscribe func()) {
	return s.SubscribeBatch(func(evs []WatchEvent) {
		for _, ev := range evs {
			fn(ev)
		}
	}, nil)
}

// SubscribeBatch registers a batched watch callback for the whole
// stream: the broker hands it consecutive events as one slice (reused
// between calls — do not retain it). resync, when non-nil, is invoked if
// the subscriber falls off the broker ring: it receives a fresh
// consistent snapshot to rebuild from, and delivery resumes with the
// first event after that snapshot's Rev. Registration happens at the
// broker's head, under the broker mutex that draws every rev, so the
// subscriber is sent exactly the events published after it — but it may
// begin between two events of one world-form commit (a gang operation),
// so a consumer that needs a consistent state starts from
// ListAndWatchBatch.
func (s *Server) SubscribeBatch(fn func([]WatchEvent), resync func(Snapshot)) (unsubscribe func()) {
	return s.broker.Subscribe("", fn, s.resyncFrom(resync))
}

// SubscribeNode is SubscribeBatch for the events of one node alone, in
// the same order: the node's own events, a pod's bind to it, permit on
// it and transitions while bound to it, and its preemption away from it.
// A pod's creation, and a permit release or terminal transition while
// unbound, concern no node and reach only the whole stream. resync, when
// non-nil, is invoked only if an event of the node fell off the ring.
func (s *Server) SubscribeNode(node string, fn func([]WatchEvent), resync func(Snapshot)) (unsubscribe func()) {
	return s.broker.Subscribe(node, fn, s.resyncFrom(resync))
}

// resyncFrom adapts a consumer's snapshot handler to the broker's
// ring-overflow callback: rebuild from a fresh consistent snapshot,
// resume after its Rev.
func (s *Server) resyncFrom(resync func(Snapshot)) func() int64 {
	if resync == nil {
		return nil
	}
	return func() int64 {
		snap := s.SnapshotNow()
		resync(snap)
		return snap.Rev
	}
}

// ListAndWatchBatch atomically snapshots the cluster state and registers
// fn for every subsequent event — the informer handshake: a cache can
// build itself from the snapshot and stay current by applying events,
// without racing mutations that happen in between. The snapshot and the
// subscription are coupled under the world ladder, so the first
// delivered event is exactly the first mutation after the snapshot.
// Delivery is batched, with an optional ring-overflow resync handler
// (see SubscribeBatch); the callback contract is otherwise Subscribe's.
func (s *Server) ListAndWatchBatch(fn func([]WatchEvent), resync func(Snapshot)) (Snapshot, func()) {
	s.lockWorld()
	defer s.unlockWorld()
	return s.snapshotWorldLocked(), s.broker.Subscribe("", fn, s.resyncFrom(resync))
}

// SnapshotNow returns a consistent point-in-time snapshot of the
// cluster state — what a resyncing watcher rebuilds from. It takes
// every stripe in the fixed order, so concurrent binds are either fully
// included (state and event) or not at all: the snapshot is always a
// consistent prefix of the watch stream.
func (s *Server) SnapshotNow() Snapshot {
	s.lockWorld()
	defer s.unlockWorld()
	return s.snapshotWorldLocked()
}

// snapshotWorldLocked builds a Snapshot. Caller must hold the world
// ladder (lockWorld): every event is published under a stripe, so the
// broker's head stays put while it reads.
func (s *Server) snapshotWorldLocked() Snapshot {
	snap := Snapshot{Rev: s.broker.LastRev()}
	var nn, np int
	for i := range numStripes {
		nn, np = nn+len(s.nodeShards[i].nodes), np+len(s.podShards[i].pods)
	}
	snap.Nodes = make([]*api.Node, 0, nn)
	for i := range s.nodeShards {
		for _, n := range s.nodeShards[i].nodes {
			snap.Nodes = append(snap.Nodes, n)
		}
	}
	slices.SortFunc(snap.Nodes, func(a, b *api.Node) int { return cmp.Compare(a.Name, b.Name) })
	snap.Pods = make([]*api.Pod, 0, np)
	for i := range s.podShards {
		for _, p := range s.podShards[i].pods {
			snap.Pods = append(snap.Pods, p)
		}
	}
	slices.SortFunc(snap.Pods, func(a, b *api.Pod) int { return cmp.Compare(a.Name, b.Name) })
	// Every index mutation happens under a pod stripe, so the index is
	// stable here; pendingMu is taken against the readers that hold no
	// stripe (the whole-queue readers, the depth gauges).
	s.pendingMu.Lock()
	snap.Pending = make([]Queued, 0, len(s.pending.pods))
	for name, e := range s.pending.pods {
		snap.Pending = append(snap.Pending, Queued{name, e.rev})
	}
	s.pendingMu.Unlock()
	s.resMu.Lock()
	for _, g := range s.gangs {
		snap.Permits = g.appendMembers(snap.Permits, false)
	}
	s.resMu.Unlock()
	sortPermits(snap.Permits)
	return snap
}

// WatchStats returns the broker's fan-out accounting: events published
// and evicted, plus per-subscriber delivery, batching, lag and resync
// counters.
func (s *Server) WatchStats() watch.Stats {
	return s.broker.Stats()
}

// QuiesceWatch blocks until every watcher has consumed every event
// published so far — the barrier async-mode tests and benchmarks use
// before asserting on subscriber state. Synchronous mode is already
// quiescent whenever no mutation is in flight.
func (s *Server) QuiesceWatch() {
	s.broker.Quiesce()
}

// RegisterNode adds a node to the cluster.
func (s *Server) RegisterNode(n *api.Node) error {
	return s.putNode(n, NodeRegistered)
}

// UpdateNode replaces a node's stored state (e.g. when the device plugin
// extends its allocatable resources, §V-A).
func (s *Server) UpdateNode(n *api.Node) error {
	return s.putNode(n, NodeUpdated)
}

// putNode stores a copy of n under its stripe and publishes that copy: a
// registration needs the name free, an update needs it taken.
func (s *Server) putNode(n *api.Node, typ WatchEventType) error {
	t := s.begin()
	defer t.end()
	nsh := t.node(n.Name)
	_, exists := nsh.nodes[n.Name]
	switch {
	case typ == NodeRegistered && exists:
		return fmt.Errorf("%w: node %s", ErrAlreadyExists, n.Name)
	case typ == NodeUpdated && !exists:
		return fmt.Errorf("%w: node %s", ErrNotFound, n.Name)
	}
	stored := n.Clone()
	nsh.nodes[n.Name] = stored
	t.publish(WatchEvent{Type: typ, Node: stored}, n.Name)
	return nil
}

// GetNode returns the named node's stored version: read-only (see
// WatchEvent); clone it to edit it for UpdateNode.
func (s *Server) GetNode(name string) (*api.Node, error) {
	sh := s.nodeShardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: node %s", ErrNotFound, name)
	}
	return n, nil
}

// ListNodes returns the stored versions of all nodes, read-only (see
// WatchEvent), sorted by name for deterministic iteration (the binpack
// policy relies on a consistent node order, §IV). Stripes are visited one
// at a time — ListNodes does not stop the world.
func (s *Server) ListNodes() []*api.Node {
	var out []*api.Node
	for i := range s.nodeShards {
		sh := &s.nodeShards[i]
		sh.mu.Lock()
		for _, n := range sh.nodes {
			out = append(out, n)
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b *api.Node) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// CreatePod submits a pod: it is stamped, assigned a UID if absent, marked
// Pending and indexed as pending (§IV step Ë). A negative request
// or limit is refused: it would pass bind admission and lower the node's
// committed sum, and later binds would then over-commit the node (§V-A:
// no EPC over-commitment). The server stores a clone of p and keeps
// nothing of p itself, its containers included: the caller may reuse p
// once the call returns, as the trace replay does with one scratch pod.
// A pod runs one workload (§VI-C: one stressor per job), so a pod with
// more than one container is refused too.
func (s *Server) CreatePod(p *api.Pod) error {
	if len(p.Spec.Containers) > 1 {
		return fmt.Errorf("%w: pod %s has %d containers, want at most one", ErrInvalid, p.Name, len(p.Spec.Containers))
	}
	for i := range p.Spec.Containers {
		c := &p.Spec.Containers[i]
		for r, q := range c.Resources.Requests {
			if q < 0 || c.Resources.Limits[r] < 0 {
				return fmt.Errorf("%w: pod %s container %q: negative %s", ErrInvalid, p.Name, c.Name, resource.Name(r))
			}
		}
	}
	t := s.begin()
	defer t.end()
	if t.pod(p.Name) != nil {
		return fmt.Errorf("%w: pod %s", ErrAlreadyExists, p.Name)
	}
	stored := p.Clone()
	if stored.UID == 0 {
		stored.UID = s.nextUID.Add(1)
	}
	stored.Status.Phase = api.PodPending
	stored.Status.SubmittedAt = s.clk.Now()
	t.psh.pods[stored.Name] = stored
	s.live.Add(1)
	s.pushPending(stored, t.publish(WatchEvent{Type: PodCreated, Pod: stored}, ""))
	return nil
}

// GetPod returns the named pod's stored version, the pod its last event
// carried: read-only (see WatchEvent), never changed by a later commit.
func (s *Server) GetPod(name string) (*api.Pod, error) {
	sh := s.podShardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.pods[name]
	if !ok {
		return nil, fmt.Errorf("%w: pod %s", ErrNotFound, name)
	}
	return p, nil
}

// ListPods returns the stored versions of all pods matching the filter
// (nil matches everything), read-only (see WatchEvent), sorted by name.
// The filter runs under a stripe lock and must not call back into the
// server.
func (s *Server) ListPods(filter func(*api.Pod) bool) []*api.Pod {
	var out []*api.Pod
	for i := range s.podShards {
		sh := &s.podShards[i]
		sh.mu.Lock()
		for _, p := range sh.pods {
			if filter == nil || filter(p) {
				out = append(out, p)
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b *api.Pod) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// VisitPendingN calls fn for up to limit (limit <= 0: every) of the
// given scheduler's pending pods (an empty schedulerName matches every
// pod), order unspecified — a scheduler orders its own queue — until the
// pods or fn ends it, under each pod's stripe lock and with VisitPods'
// contract; a pod that left the pending pods since the names were copied
// out (bound, holding a permit, or terminal) is skipped. It is for
// sampling, benchmarks and tests; a pass reads its own queue instead.
func (s *Server) VisitPendingN(schedulerName string, limit int, fn func(*api.Pod) bool) {
	s.pendingMu.Lock()
	if limit <= 0 {
		limit = len(s.pending.pods)
	}
	names := make([]string, 0, min(limit, len(s.pending.pods)))
	for name, e := range s.pending.pods {
		if len(names) == limit {
			break
		}
		if schedulerName == "" || e.sched == schedulerName {
			names = append(names, name)
		}
	}
	s.pendingMu.Unlock()
	for _, name := range names {
		sh := s.podShardFor(name)
		sh.mu.Lock()
		// The index changes only under the pod's stripe, so this answer
		// holds while fn runs.
		s.pendingMu.Lock()
		_, pending := s.pending.pods[name]
		s.pendingMu.Unlock()
		stop := pending && !fn(sh.pods[name])
		sh.mu.Unlock()
		if stop {
			return
		}
	}
}

// VisitPending is VisitPendingN with no limit.
func (s *Server) VisitPending(schedulerName string, fn func(*api.Pod) bool) {
	s.VisitPendingN(schedulerName, 0, fn)
}

// PendingPods returns the stored versions of the given scheduler's pending
// pods, read-only (see WatchEvent), order unspecified.
func (s *Server) PendingPods(schedulerName string) []*api.Pod {
	out := []*api.Pod{}
	s.VisitPending(schedulerName, func(p *api.Pod) bool {
		out = append(out, p)
		return true
	})
	return out
}

// VisitPods calls fn for every pod's stored version under its stripe
// lock: ListPods without the slice or the sort. The pod is read-only (see
// WatchEvent) and may be retained; fn must not call back into the server.
// Returning false stops the walk. Iteration order is unspecified.
func (s *Server) VisitPods(fn func(*api.Pod) bool) {
	for i := range s.podShards {
		sh := &s.podShards[i]
		sh.mu.Lock()
		more := true
		for _, p := range sh.pods {
			if more = fn(p); !more {
				break
			}
		}
		sh.mu.Unlock()
		if !more {
			return
		}
	}
}

// PendingCount returns the number of pending pods across all schedulers.
func (s *Server) PendingCount() int {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	return len(s.pending.pods)
}

// PendingCountByClass returns the named scheduler's pending pods per
// workload class (the empty name reports every scheduler's): one entry
// per known class with pending pods, plus api.ClassUnspecified for the
// unclassified remainder. The per-class counters are maintained as pods
// enter and leave the index, so this is O(schedulers × classes) under the
// pending lock — cheap enough for per-pass backlog monitoring.
func (s *Server) PendingCountByClass(schedulerName string) map[api.WorkloadClass]int {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	return s.pending.classCounts(schedulerName)
}

// Bind assigns a pending pod to a node (§IV step Í: "the scheduler
// communicates the computed job-node assignments to the orchestrator").
// It is a *conditional* bind: under the pod's and node's stripe locks it
// re-validates, against authoritative pod and node state, that the pod
// still fits the target node (see Admission). An optimistic scheduler
// that planned against a stale cache loses the race with a typed
// ErrConflict / ErrOutdated — the pod stays queued and reschedules from
// a fresh view — instead of silently overcommitting the node. On success
// the pod is no longer pending; kubelets learn about it via PodBound.
//
// The whole commit — admission, committed accounting, pod mutation,
// event publish — happens under exactly one pod stripe and one node
// stripe (acquired in that order), so binds against different nodes run
// in parallel; only binds racing for the same node serialize.
func (s *Server) Bind(podName, nodeName string) error {
	if s.metrics == nil {
		return s.bindCommit(podName, nodeName)
	}
	t0 := time.Now()
	err := s.bindCommit(podName, nodeName)
	s.metrics.bindLatency.ObserveDuration(time.Since(t0))
	return err
}

// bindCommit is the Bind transaction itself; Bind wraps it with the
// commit-latency observation when telemetry is attached.
func (s *Server) bindCommit(podName, nodeName string) error {
	s.binds.attempts.Add(1)
	t := s.begin()
	defer t.end()
	p := t.pod(podName)
	if p == nil {
		s.binds.rejectedPodState.Add(1)
		s.metrics.rejectedUnknownPod()
		return fmt.Errorf("%w: pod %s", ErrNotFound, podName)
	}
	n, err := t.target(nodeName)
	if err != nil {
		return s.refuseBind(p, &s.binds.rejectedNodeState, err)
	}
	if err := s.placeable(p); err != nil {
		return s.refuseBind(p, &s.binds.rejectedPodState, err)
	}
	if err := t.charge(p, n); err != nil {
		class := &s.binds.rejectedNodeState
		if errors.Is(err, ErrOutdated) {
			class = &s.binds.rejectedCapacity
		}
		return s.refuseBind(p, class, err)
	}
	s.binds.bound.Add(1)
	t.bindPod(p, nodeName)
	return nil
}

// refuseBind counts a refused bind in its rejection class and hands the
// error back. A refusal publishes nothing and draws no rev: the typed
// error, BindStats and the per-class rejection counter are its record.
func (s *Server) refuseBind(p *api.Pod, class *atomic.Int64, err error) error {
	class.Add(1)
	s.metrics.rejected(p.Spec.WorkloadClass())
	return err
}

// admitBind is the conditional-bind capacity check. Caller must hold the
// node's stripe lock and pass that stripe's committed list for the node.
// Node-state refusals are ErrConflict (the scheduler raced a cordon or
// drain); capacity refusals are ErrOutdated (a concurrent scheduler won
// the headroom).
func (s *Server) admitBind(p *api.Pod, n *api.Node, com resource.List, req resource.List) error {
	if !n.Ready || n.Unschedulable {
		return fmt.Errorf("%w: node %s is not schedulable (ready=%v unschedulable=%v)",
			ErrConflict, n.Name, n.Ready, n.Unschedulable)
	}
	if pages := req[resource.EPCPages]; pages > 0 {
		alloc := n.Allocatable[resource.EPCPages]
		if alloc <= 0 {
			return fmt.Errorf("%w: SGX pod %s on non-SGX node %s", ErrConflict, p.Name, n.Name)
		}
		// Strict in every mode: EPC page items are device resources the
		// plugin admits by request accounting — over-committing them is
		// never legal (§V-A).
		if com[resource.EPCPages]+pages > alloc {
			return fmt.Errorf("%w: node %s EPC devices exhausted (%d committed + %d requested > %d)",
				ErrOutdated, n.Name, com[resource.EPCPages], pages, alloc)
		}
	}
	// Name order, so a pod over-asking several resources is refused for
	// the same one every time.
	for _, name := range [...]resource.Name{resource.CPU, resource.Memory} {
		q, alloc := req[name], n.Allocatable[name]
		if q <= 0 {
			continue
		}
		if q > alloc {
			return fmt.Errorf("%w: pod %s requests %s=%d beyond node %s allocatable %d",
				ErrConflict, p.Name, name, q, n.Name, alloc)
		}
		if s.admission == AdmitStrict && com[name]+q > alloc {
			return fmt.Errorf("%w: node %s %s exhausted (%d committed + %d requested > %d)",
				ErrOutdated, n.Name, name, com[name], q, alloc)
		}
	}
	return nil
}

// removePending drops a pod from the pending index. Safe to call while
// holding stripe locks — pendingMu is below them in the lock order.
func (s *Server) removePending(p *api.Pod) {
	s.pendingMu.Lock()
	s.pending.remove(p.Name)
	s.pendingMu.Unlock()
}

// pushPending indexes a pod as pending from rev, the rev its commit's
// event drew: the mutator calls it after publish, still inside its
// transaction, so a snapshot never sees one without the other. Same lock
// discipline as removePending.
func (s *Server) pushPending(p *api.Pod, rev int64) {
	s.pendingMu.Lock()
	s.pending.add(p, rev)
	s.pendingMu.Unlock()
}

// MarkRunning transitions a bound pod to Running, stamping StartedAt. It
// is idempotent: on a pod already Running it publishes nothing, keeps
// StartedAt and returns nil, so the stream carries one Running per
// binding, and a kubelet that admits a Running pod again (after a
// restart) keeps its admission instead of withdrawing it.
func (s *Server) MarkRunning(podName string) error {
	return s.transition(podName, api.PodRunning, "")
}

// MarkSucceeded transitions a pod to Succeeded, stamping FinishedAt.
func (s *Server) MarkSucceeded(podName string) error {
	return s.transition(podName, api.PodSucceeded, "")
}

// MarkFailed transitions a pod to Failed with a reason, stamping
// FinishedAt. Pods killed by EPC limit enforcement land here (§VI-F:
// "these jobs are immediately killed after launch").
func (s *Server) MarkFailed(podName, reason string) error {
	return s.transition(podName, api.PodFailed, reason)
}

func (s *Server) transition(podName string, phase api.PodPhase, reason string) error {
	t := s.begin()
	defer t.end()
	p := t.pod(podName)
	if p == nil {
		return fmt.Errorf("%w: pod %s", ErrNotFound, podName)
	}
	if p.IsTerminal() {
		return fmt.Errorf("%w: pod %s already terminal (%s)", ErrConflict, podName, p.Status.Phase)
	}
	if phase == api.PodRunning && p.Spec.NodeName == "" {
		return fmt.Errorf("%w: pod %s running without binding", ErrConflict, podName)
	}
	if phase == api.PodRunning && p.Status.Phase == api.PodRunning {
		return nil
	}
	p = t.nextVersion(p)
	switch phase {
	case api.PodRunning:
		p.Status.StartedAt = s.clk.Now()
	case api.PodSucceeded, api.PodFailed:
		p.Status.FinishedAt = s.clk.Now()
		s.live.Add(-1)
		// A gang member evicted while holding a permit is unbound but has
		// capacity committed on its permit's node — release it there or
		// the node leaks headroom forever.
		node := p.Spec.NodeName
		if permit, held := s.moveMember(p, memberFinished, ""); held {
			node = permit
		}
		if node != "" {
			t.release(p, node)
		}
		// A pod failed before start (e.g. admission denial) is no longer
		// pending either.
		s.removePending(p)
	}
	p.Status.Phase = phase
	p.Status.Reason = reason
	t.publish(WatchEvent{Type: PodUpdated, Pod: p}, p.Spec.NodeName)
	return nil
}

// withReason prefixes an optional caller-supplied reason with the verb
// of the operation recording it.
func withReason(verb, reason string) string {
	if reason == "" {
		return verb
	}
	return verb + ": " + reason
}

// Preempt returns a bound, non-terminal pod to the pending pods: its
// binding is cleared and it re-enters the queue, behind every pod of its
// priority queued before it, to be scheduled again later. The kubelet holding the pod reacts to the update
// by killing the workload and releasing its resources — this is the §IV
// eviction path priority scheduling uses to make room for more important
// pods. Scheduling timestamps are reset so waiting/turnaround metrics
// describe the eventual successful run.
func (s *Server) Preempt(podName, reason string) error {
	t := s.begin()
	defer t.end()
	p := t.pod(podName)
	if p == nil {
		return fmt.Errorf("%w: pod %s", ErrNotFound, podName)
	}
	if p.IsTerminal() {
		return fmt.Errorf("%w: pod %s already terminal (%s)", ErrConflict, podName, p.Status.Phase)
	}
	if p.Spec.NodeName == "" {
		return fmt.Errorf("%w: pod %s is not bound", ErrConflict, podName)
	}
	t.requeueBound(p, withReason("Preempted", reason))
	return nil
}

// Evict forcibly terminates a pod (Failed with an eviction reason),
// whether it is still queued or already running. Kubelets react to the
// update by killing the workload and releasing its resources.
func (s *Server) Evict(podName, reason string) error {
	return s.transition(podName, api.PodFailed, withReason("Evicted", reason))
}

// AllTerminal reports whether every pod has reached a terminal phase —
// the completion condition for trace replays, read after every simulated
// event. It reads a count that CreatePod raises and a transition into a
// terminal phase, the only way into one, lowers.
func (s *Server) AllTerminal() bool { return s.live.Load() == 0 }
