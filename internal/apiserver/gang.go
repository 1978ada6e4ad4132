package apiserver

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/sgxorch/sgxorch/internal/api"
)

// Gang (pod-group) primitives: the server-side half of all-or-nothing
// scheduling. A scheduler places a gang member with Reserve instead of
// Bind — the same admission-checked conditional commit, except the pod
// stays unbound: its capacity is committed on the node (so concurrent
// schedulers cannot steal the headroom) while the pod holds a *permit*.
// Once enough co-members hold permits, CommitGroup flips every held
// member to bound in one atomic step under the world ladder — no event
// stream ever observes a partially bound gang becoming visible
// piecemeal with other commits interleaved that could invalidate it.
// If the quorum never arrives, ReleaseGroup rolls every permit back
// wholesale: capacity returns and the members are pending again.
// PreemptGroup extends the eviction path with the same
// atomicity: a gang is evicted whole or not at all.
//
// Locking: Reserve runs in a stripe-form transaction (one pod stripe +
// one node stripe), exactly like Bind. CommitGroup/ReleaseGroup/
// PreemptGroup run in the world form — they touch many stripes and
// their atomicity guarantee *is* "no other commit interleaves" — and
// apply the same per-pod bodies (txn.go) the single-pod operations use.
// The gang records sit under resMu, a leaf lock (see Server) so any path
// can consult them.

// gangRecord is the server's one record of a pod group: the members
// holding a permit (pod → node), the live bound members, and how many
// members reached a terminal phase — the triple internal/model's
// Gang.Count reads off the stream. held and bound are disjoint.
type gangRecord struct {
	held     map[string]string
	bound    map[string]bool
	finished int
}

// Permit is a held gang permit: Pod's capacity is committed on Node,
// pending the gang's CommitGroup or ReleaseGroup.
type Permit struct{ Pod, Node string }

// memberState is where a gang member stands in its group's record.
type memberState int

const (
	memberPending  memberState = iota // unbound, holding no permit
	memberHeld                        // holding a permit
	memberBound                       // bound and live
	memberFinished                    // terminal
)

// moveMember records gang member p's new state (held on node, bound,
// pending or finished) and returns the permit it held before, if any; a
// solo pod has no record. Every change to a record goes through it, under
// p's stripe or the world, which is what makes a read under a pod stripe
// stable.
func (s *Server) moveMember(p *api.Pod, to memberState, node string) (permit string, held bool) {
	if !p.Spec.InGang() {
		return "", false
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	g := s.gangs[p.Spec.PodGroup]
	if g == nil {
		g = &gangRecord{held: make(map[string]string), bound: make(map[string]bool)}
		s.gangs[p.Spec.PodGroup] = g
	}
	permit, held = g.held[p.Name]
	delete(g.held, p.Name)
	delete(g.bound, p.Name)
	switch to {
	case memberHeld:
		g.held[p.Name] = node
	case memberBound:
		g.bound[p.Name] = true
	case memberFinished:
		g.finished++
	}
	return permit, held
}

// reservedNode returns the node p holds a permit on, if any.
func (s *Server) reservedNode(p *api.Pod) (string, bool) {
	if !p.Spec.InGang() {
		return "", false
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if g := s.gangs[p.Spec.PodGroup]; g != nil {
		node, ok := g.held[p.Name]
		return node, ok
	}
	return "", false
}

// GangCounts returns the group's members holding a permit, bound and
// live, and terminal — internal/model's Gang.Count — read in one
// acquisition of resMu, so no gang operation lands between the three.
func (s *Server) GangCounts(group string) (held, bound, finished int) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if g := s.gangs[group]; g != nil {
		return len(g.held), len(g.bound), g.finished
	}
	return 0, 0, 0
}

// ReservationCount returns the total number of permits currently held
// across all gangs — the post-hoc accounting checks in experiments
// assert it returns to zero after a rollback.
func (s *Server) ReservationCount() int {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	n := 0
	for _, g := range s.gangs {
		n += len(g.held)
	}
	return n
}

// appendMembers appends the record's permits and, with bound, its live
// bound members as permits with no Node. A nil record has none.
func (g *gangRecord) appendMembers(out []Permit, bound bool) []Permit {
	if g == nil {
		return out
	}
	for pod, node := range g.held {
		out = append(out, Permit{Pod: pod, Node: node})
	}
	if bound {
		for pod := range g.bound {
			out = append(out, Permit{Pod: pod})
		}
	}
	return out
}

func sortPermits(ps []Permit) {
	slices.SortFunc(ps, func(a, b Permit) int { return cmp.Compare(a.Pod, b.Pod) })
}

// members returns the group's permits and, with bound, its live bound
// members (with no Node), sorted by pod.
func (s *Server) members(group string, bound bool) []Permit {
	s.resMu.Lock()
	out := s.gangs[group].appendMembers(nil, bound)
	s.resMu.Unlock()
	sortPermits(out)
	return out
}

// Reserve grants a gang member a permit on a node: the same conditional
// commit as Bind — admission re-validated against authoritative state
// under the pod's and node's stripes, capacity moved into the node's
// committed accounting, pod no longer pending — except the
// pod's binding stays empty. The member is now held in the waiting
// area: CommitGroup binds it for real, ReleaseGroup rolls it back. The
// emitted PodPermitHeld event carries the reserved node in the pod
// copy's Spec.NodeName so watch-driven caches charge the capacity,
// even though authoritative state keeps the pod unbound.
func (s *Server) Reserve(podName, nodeName string) error {
	t := s.begin()
	defer t.end()
	p := t.pod(podName)
	if p == nil {
		return fmt.Errorf("%w: pod %s", ErrNotFound, podName)
	}
	if !p.Spec.InGang() {
		return fmt.Errorf("%w: pod %s is not in a pod group", ErrConflict, podName)
	}
	if err := s.placeable(p); err != nil {
		return err
	}
	n, err := t.target(nodeName)
	if err != nil {
		return err
	}
	if err := t.charge(p, n); err != nil {
		return err
	}
	s.moveMember(p, memberHeld, nodeName)
	ev := *p
	ev.Spec.NodeName = nodeName
	t.publish(WatchEvent{Type: PodPermitHeld, Pod: &ev}, nodeName)
	return nil
}

// The group operations below list their members under the world ladder
// and rely on two invariants instead of re-checking each member
// defensively:
//
// A permit holder is always a live, Pending, unbound pod. Three guards
// keep it so: a terminal transition drops the permit it finds, Bind and
// Reserve refuse a pod that holds one (placeable) while MarkRunning and
// Preempt refuse an unbound pod, and there is no pod-delete API. So "the
// permit outlived its pod" cannot happen, and no code path releases a
// permit's capacity without publishing the event that says so.
//
// A record's bound set is exactly the group's live bound members:
// bindPod adds, the terminal transition and requeueBound drop.
//
// With the world held the records cannot change between the listing and
// the per-member step, so every listed member is still what the record
// said it was.

// CommitGroup atomically binds every member of the group currently
// holding a permit, in sorted name order, under the world ladder: the
// PodBound events occupy consecutive resource versions with no foreign
// commit interleaved, so every consistent prefix of the watch stream sees
// either no member bound or the binding sequence in progress with all
// capacity already safely committed since Reserve. Returns how many
// members were bound. Capacity is NOT re-admitted — it was committed at
// Reserve time and nothing could have stolen it since.
func (s *Server) CommitGroup(group string) (int, error) {
	t := s.beginWorld()
	defer t.end()
	permits := s.members(group, false)
	if len(permits) == 0 {
		return 0, fmt.Errorf("%w: group %s holds no permits", ErrConflict, group)
	}
	for _, pm := range permits {
		t.bindPod(t.pod(pm.Pod), pm.Node)
	}
	return len(permits), nil
}

// ReleaseGroup rolls back every permit the group holds, wholesale,
// under the world ladder: committed capacity returns to the nodes and
// the members are pending again, queued from their events' revs. This is
// the permit-timeout path — a gang that cannot reach
// quorum must not camp on capacity other work could use. Returns how
// many permits were released.
func (s *Server) ReleaseGroup(group, reason string) (int, error) {
	if reason == "" {
		reason = "permit released"
	}
	t := s.beginWorld()
	defer t.end()
	permits := s.members(group, false)
	for _, pm := range permits {
		t.rollbackPermit(t.pod(pm.Pod), reason)
	}
	return len(permits), nil
}

// PreemptGroup evicts every live bound member of the gang — and rolls
// back any permits it still holds — in one atomic step under the world
// ladder: a gang is preempted whole or not at all, so preemption can
// never strand a partial gang on the cluster. Members are pending again
// with scheduling timestamps reset, exactly like Preempt.
// Returns how many members were evicted (bound) plus released (held).
func (s *Server) PreemptGroup(group, reason string) (int, error) {
	reason = withReason("Preempted", reason)
	t := s.beginWorld()
	defer t.end()
	members := s.members(group, true)
	if len(members) == 0 {
		return 0, fmt.Errorf("%w: group %s has no live members", ErrConflict, group)
	}
	for _, m := range members {
		if p := t.pod(m.Pod); m.Node == "" {
			t.requeueBound(p, reason)
		} else {
			t.rollbackPermit(p, reason)
		}
	}
	return len(members), nil
}
