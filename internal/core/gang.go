package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
)

// GangDirector coordinates all-or-nothing scheduling of pod groups over
// the framework's PreFilter and Permit plugin points. It is shared by
// every scheduler placing gang members (Config.Gang; a sharded fleet
// passes the same director to all members), because quorum is a
// cluster-wide property no single member can decide from its own state.
//
// The lifecycle of a gang:
//
//  1. PreFilter gates each member: if the group's remaining members
//     cannot possibly fit the cluster this pass, the member is skipped
//     before any per-node work — no point holding a permit that will
//     only be rolled back. Long-waiting gangs get an age-based priority
//     boost here (starvation prevention), scoped to the pass.
//  2. Permit converts the member's selected placement into a
//     conditional reservation (apiserver.Reserve): capacity commits on
//     the node, the pod waits in the permit area.
//  3. OnReserved counts the permit toward quorum. At quorum the
//     director commits the whole gang atomically (CommitGroup); the
//     first permit of a round also arms a sim-clock timeout that rolls
//     every permit back wholesale (ReleaseGroup) if quorum never
//     arrives — a gang must not camp on capacity other work could use.
//
// Concurrency: the director's mutex only guards its own tables and is
// never held across an API-server mutation — CommitGroup/ReleaseGroup
// publish watch events that deliver synchronously back into subscriber
// callbacks, and holding the mutex there would deadlock the director's
// own event subscription.
type GangDirector struct {
	clk clock.Clock
	srv *apiserver.Server
	cfg GangConfig

	mu     sync.Mutex
	groups map[string]*gangState
	unsub  func()

	commits  atomic.Int64
	timeouts atomic.Int64
}

// GangConfig parameterises a GangDirector.
type GangConfig struct {
	// PermitTimeout is how long a gang may hold permits without
	// reaching quorum before the director rolls them all back
	// (DefaultPermitTimeout when zero; negative disables the timeout).
	PermitTimeout time.Duration
}

// Gang scheduling defaults.
const (
	// DefaultPermitTimeout matches kube coscheduling's waiting-pod
	// deadline order of magnitude: several scheduling intervals, so a
	// gang survives a couple of passes of partial placement before
	// releasing capacity.
	DefaultPermitTimeout = 30 * time.Second
	// DefaultBoostEvery is the waiting age that earns a gang one extra
	// priority tier during its members' passes — starvation prevention
	// for gangs repeatedly losing capacity races to smaller jobs: one
	// tier per minute of waiting.
	DefaultBoostEvery = time.Minute
	// DefaultMaxBoost bounds the boost so an ancient gang cannot
	// leapfrog operator-assigned high-priority tiers arbitrarily.
	DefaultMaxBoost = 10
)

// GangDirectorStats counts director-level outcomes.
type GangDirectorStats struct {
	// Commits counts gangs committed at quorum; Timeouts counts
	// whole-gang permit rollbacks.
	Commits  int64
	Timeouts int64
}

// gangState is the director's per-group bookkeeping.
type gangState struct {
	minMember int
	firstSeen time.Time
	// done counts members that reached a terminal phase — they no
	// longer need placement, so the quorum for the remainder shrinks.
	done int
	// round invalidates stale permit-timeout callbacks: commit and
	// rollback both advance it, so a timer armed for an earlier round
	// fires as a no-op.
	round int
	timer clock.Timer
}

// NewGangDirector creates a director bound to the API server. It
// subscribes to pod events to track members leaving their groups
// (terminal transitions shrink the quorum); Close unsubscribes.
func NewGangDirector(clk clock.Clock, srv *apiserver.Server, cfg GangConfig) *GangDirector {
	switch {
	case cfg.PermitTimeout == 0:
		cfg.PermitTimeout = DefaultPermitTimeout
	case cfg.PermitTimeout < 0:
		cfg.PermitTimeout = 0
	}
	d := &GangDirector{
		clk:    clk,
		srv:    srv,
		cfg:    cfg,
		groups: make(map[string]*gangState),
	}
	d.unsub = srv.SubscribeBatch(d.onPodEvents, nil)
	return d
}

// Close detaches the director from the API server watch.
func (d *GangDirector) Close() {
	if d.unsub != nil {
		d.unsub()
		d.unsub = nil
	}
}

// Stats returns a copy of the director's counters.
func (d *GangDirector) Stats() GangDirectorStats {
	return GangDirectorStats{Commits: d.commits.Load(), Timeouts: d.timeouts.Load()}
}

// onPodEvents tracks gang members reaching terminal phases: a finished
// (or failed/evicted) member no longer needs placement, so the group's
// remaining quorum shrinks. Runs as a watch callback — it only mutates
// director state, never the server.
func (d *GangDirector) onPodEvents(evs []apiserver.WatchEvent) {
	for i := range evs {
		ev := &evs[i]
		if ev.Type != apiserver.PodUpdated || ev.Pod == nil {
			continue
		}
		if !ev.Pod.Spec.InGang() || !ev.Pod.IsTerminal() {
			continue
		}
		d.mu.Lock()
		gs := d.ensureLocked(ev.Pod.Spec.PodGroup, ev.Pod.Spec.GangMinMember())
		gs.done++
		d.mu.Unlock()
	}
}

// ensureLocked returns the group's state, creating it (stamping
// firstSeen for age boosting) on first sight. Caller must hold d.mu.
func (d *GangDirector) ensureLocked(group string, minMember int) *gangState {
	gs, ok := d.groups[group]
	if !ok {
		gs = &gangState{minMember: minMember, firstSeen: d.clk.Now()}
		d.groups[group] = gs
	}
	if minMember > gs.minMember {
		gs.minMember = minMember
	}
	return gs
}

// Name implements PreFilterPlugin and PermitPlugin.
func (d *GangDirector) Name() string { return "gang" }

// PreFilter implements PreFilterPlugin: solo pods pass through; gang
// members get the age-based priority boost and the group-level
// capacity gate — if the members still needing placement could not all
// fit the view's current headroom, the pass is rejected early, before
// this member takes a permit that would only roll back at timeout.
func (d *GangDirector) PreFilter(pod *PodInfo, view *ClusterView) bool {
	if !pod.Pod.Spec.InGang() {
		return true
	}
	group := pod.Pod.Spec.PodGroup
	d.mu.Lock()
	gs := d.ensureLocked(group, pod.Pod.Spec.GangMinMember())
	age := d.clk.Now().Sub(gs.firstSeen)
	done := gs.done
	minMember := gs.minMember
	d.mu.Unlock()

	if age > 0 {
		boost := int32(min(age/DefaultBoostEvery, DefaultMaxBoost))
		// Scoped to this pass: PodInfo is pass-local scratch, so the
		// boost raises this member's preemption leverage without
		// rewriting the pod's declared priority.
		pod.Priority += boost
	}

	// need = members still requiring a slot this pass, including this
	// one. Held and bound members already have theirs.
	need := minMember - done - d.srv.BoundGroupCount(group) - d.srv.HoldCount(group)
	if need < 1 {
		need = 1
	}
	// Can `need` members shaped like this one fit the current headroom?
	// Members of a gang are homogeneous in practice (MPI ranks, training
	// workers), so this pod's request is the unit of account. Nodes can
	// hold several members each; stop as soon as enough slots are found.
	slots := 0
	for _, n := range view.Nodes {
		slots += memberSlots(pod, n)
		if slots >= need {
			return true
		}
	}
	return false
}

// memberSlots returns how many pods shaped like pod fit node's current
// headroom.
func memberSlots(pod *PodInfo, node *NodeView) int {
	slots := int(^uint(0) >> 1) // MaxInt
	if pod.EPCPages > 0 {
		if !node.SGX {
			return 0
		}
		if k := int(node.FreeDevices / pod.EPCPages); k < slots {
			slots = k
		}
	}
	for r, q := range pod.Req {
		if q <= 0 {
			continue
		}
		free := node.Allocatable[r] - node.Used[r]
		if free < q {
			return 0
		}
		if k := int(free / q); k < slots {
			slots = k
		}
	}
	if slots < 0 {
		slots = 0
	}
	return slots
}

// Permit implements PermitPlugin: gang members wait (reserve
// conditionally), solo pods bind immediately.
func (d *GangDirector) Permit(pod *PodInfo, _ string) PermitDecision {
	if pod.Pod.Spec.InGang() {
		return PermitWait
	}
	return PermitAllow
}

// OnReserved implements ReserveObserver: a member's reservation
// committed, so re-evaluate the group's quorum. At quorum the whole
// gang commits atomically; the first permit of a round arms the
// rollback timeout. Called by the scheduler outside its pass locks, so
// the server mutations here are safe.
func (d *GangDirector) OnReserved(pod *PodInfo, _ string) {
	spec := &pod.Pod.Spec
	if !spec.InGang() {
		return
	}
	group := spec.PodGroup
	holds := d.srv.HoldCount(group)
	bound := d.srv.BoundGroupCount(group)

	d.mu.Lock()
	gs := d.ensureLocked(group, spec.GangMinMember())
	need := gs.minMember - gs.done - bound
	commit := holds > 0 && holds >= need
	if commit {
		if gs.timer != nil {
			gs.timer.Stop()
			gs.timer = nil
		}
		gs.round++
	} else if gs.timer == nil && d.cfg.PermitTimeout > 0 {
		round := gs.round
		gs.timer = d.clk.AfterFunc(d.cfg.PermitTimeout, func() {
			d.onPermitTimeout(group, round)
		})
	}
	d.mu.Unlock()

	if commit {
		// Outside d.mu: the commit's PodBound events deliver
		// synchronously into watch callbacks (including this
		// director's own subscription).
		if _, err := d.srv.CommitGroup(group); err == nil {
			d.commits.Add(1)
		}
	}
}

// onPermitTimeout is the sim-clock rollback: if the round that armed
// the timer is still current and the gang still holds permits, release
// them all. A commit or an earlier rollback advances the round, making
// stale timers no-ops.
func (d *GangDirector) onPermitTimeout(group string, round int) {
	d.mu.Lock()
	gs := d.groups[group]
	if gs == nil || gs.round != round {
		d.mu.Unlock()
		return
	}
	gs.timer = nil
	gs.round++
	d.mu.Unlock()
	if released, _ := d.srv.ReleaseGroup(group, "permit timeout"); released > 0 {
		d.timeouts.Add(1)
	}
}
