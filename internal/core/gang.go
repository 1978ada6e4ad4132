package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
)

// GangDirector coordinates all-or-nothing scheduling of pod groups. The
// scheduling cycle calls it for gang members only, and only when a
// scheduler has one (Config.Gang); solo pods never reach it. It is shared
// by every scheduler placing gang members (a sharded fleet passes the same
// director to all members), because quorum is a cluster-wide property no
// single member can decide from its own state.
//
// The lifecycle of a gang:
//
//  1. admit gates each member before any per-node work: if the group's
//     remaining members cannot possibly fit the cluster this pass, the
//     member is skipped — no point holding a permit that will only be
//     rolled back. Long-waiting gangs get an age-based priority boost
//     here (starvation prevention), scoped to the member's cycle.
//  2. The cycle commits the member's selected placement as a
//     conditional reservation (apiserver.Reserve) instead of a bind:
//     capacity commits on the node, the pod waits in the permit area.
//  3. onReserved counts the permit toward quorum. At quorum the
//     director commits the whole gang atomically (CommitGroup); the
//     first permit of a round also arms a sim-clock timeout that rolls
//     every permit back wholesale (ReleaseGroup) if quorum never
//     arrives — a gang must not camp on capacity other work could use.
//
// Kubernetes' coscheduling plugin does steps 1 and 2 at its PreFilter and
// Permit extension points; here they are two calls of one cycle.
//
// The group's held, bound and finished members are the API server's
// (Server.GangCounts, read in one call): the director watches nothing and
// keeps only each group's quorum, age and permit timer. Its mutex guards
// those and is never held across an API-server mutation, so one
// member's commit never stalls another scheduler's admit.
type GangDirector struct {
	clk clock.Clock
	srv *apiserver.Server
	cfg GangConfig

	mu     sync.Mutex
	groups map[string]*gangState
	closed bool

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
	// firstSeen is the group's first admit or onReserved, the age
	// the priority boost counts from.
	firstSeen time.Time
	// round invalidates stale permit-timeout callbacks: commit and
	// rollback both advance it, so a timer armed for an earlier round
	// fires as a no-op.
	round int
	timer clock.Timer
}

// NewGangDirector creates a director bound to the API server.
func NewGangDirector(clk clock.Clock, srv *apiserver.Server, cfg GangConfig) *GangDirector {
	switch {
	case cfg.PermitTimeout == 0:
		cfg.PermitTimeout = DefaultPermitTimeout
	case cfg.PermitTimeout < 0:
		cfg.PermitTimeout = 0
	}
	return &GangDirector{
		clk:    clk,
		srv:    srv,
		cfg:    cfg,
		groups: make(map[string]*gangState),
	}
}

// Close stops the director's armed permit timers, and arms no more: a
// gang holding permits below quorum keeps them.
func (d *GangDirector) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for _, gs := range d.groups {
		if gs.timer != nil {
			gs.timer.Stop()
			gs.timer = nil
		}
	}
}

// Stats returns a copy of the director's counters.
func (d *GangDirector) Stats() GangDirectorStats {
	return GangDirectorStats{Commits: d.commits.Load(), Timeouts: d.timeouts.Load()}
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

// admit is a gang member's gate: it applies the age-based priority boost
// and the group-level capacity check — if the members still needing
// placement could not all fit the view's current headroom, the member's
// cycle ends here, before it takes a permit that would only roll back at
// timeout.
func (d *GangDirector) admit(pod *PodInfo, view *ClusterView) bool {
	group := pod.Pod.Spec.PodGroup
	d.mu.Lock()
	gs := d.ensureLocked(group, pod.Pod.Spec.GangMinMember())
	age := d.clk.Now().Sub(gs.firstSeen)
	minMember := gs.minMember
	d.mu.Unlock()

	if age > 0 {
		boost := int32(min(age/DefaultBoostEvery, DefaultMaxBoost))
		// Scoped to this cycle: PodInfo is refilled per pod, so the
		// boost raises this member's preemption leverage without
		// rewriting the pod's declared priority.
		pod.Priority += boost
	}

	// need = members still requiring a slot this pass, including this
	// one. Held and bound members already have theirs; finished members
	// need none.
	held, bound, finished := d.srv.GangCounts(group)
	need := minMember - finished - bound - held
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

// onReserved is called after a member's reservation committed: it
// re-evaluates the group's quorum — finished members count toward it. At
// quorum the whole gang commits atomically; the first permit of a round
// arms the rollback timeout. The scheduler calls it outside the server's
// critical sections, so the server mutations here are safe.
func (d *GangDirector) onReserved(pod *PodInfo) {
	spec := &pod.Pod.Spec
	group := spec.PodGroup
	held, bound, finished := d.srv.GangCounts(group)

	d.mu.Lock()
	gs := d.ensureLocked(group, spec.GangMinMember())
	need := gs.minMember - finished - bound
	commit := held > 0 && held >= need
	if commit {
		if gs.timer != nil {
			gs.timer.Stop()
			gs.timer = nil
		}
		gs.round++
	} else if gs.timer == nil && d.cfg.PermitTimeout > 0 && !d.closed {
		round := gs.round
		gs.timer = d.clk.AfterFunc(d.cfg.PermitTimeout, func() {
			d.onPermitTimeout(group, round)
		})
	}
	d.mu.Unlock()

	if commit {
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
	if gs == nil || gs.round != round || d.closed {
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
