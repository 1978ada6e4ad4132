package apiserver

import (
	"fmt"
	"sort"
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
// The reservation tables themselves sit under resMu, a leaf lock (see
// Server) so any path can consult them.

// --- reservation table helpers (resMu leaf discipline: lock, touch the
// maps, unlock — never acquire anything else while held) ---

// reservedNode returns the node a pod holds a permit on, if any.
func (s *Server) reservedNode(pod string) (string, bool) {
	s.resMu.Lock()
	r, ok := s.reservations[pod]
	s.resMu.Unlock()
	return r.node, ok
}

func (s *Server) putReservation(pod, node, group string) {
	s.resMu.Lock()
	s.reservations[pod] = reservation{node: node, group: group}
	holds := s.groupHolds[group]
	if holds == nil {
		holds = make(map[string]string)
		s.groupHolds[group] = holds
	}
	holds[pod] = node
	s.resMu.Unlock()
}

// dropReservation removes a pod's permit from both tables, returning it
// so the caller can release the committed capacity.
func (s *Server) dropReservation(pod string) (reservation, bool) {
	s.resMu.Lock()
	r, ok := s.reservations[pod]
	if ok {
		delete(s.reservations, pod)
		if holds := s.groupHolds[r.group]; holds != nil {
			delete(holds, pod)
			if len(holds) == 0 {
				delete(s.groupHolds, r.group)
			}
		}
	}
	s.resMu.Unlock()
	return r, ok
}

func (s *Server) addGroupBound(group, pod string) {
	s.resMu.Lock()
	members := s.groupBound[group]
	if members == nil {
		members = make(map[string]bool)
		s.groupBound[group] = members
	}
	members[pod] = true
	s.resMu.Unlock()
}

func (s *Server) dropGroupBound(group, pod string) {
	s.resMu.Lock()
	if members := s.groupBound[group]; members != nil {
		delete(members, pod)
		if len(members) == 0 {
			delete(s.groupBound, group)
		}
	}
	s.resMu.Unlock()
}

// HoldCount returns how many members of the group currently hold
// permits.
func (s *Server) HoldCount(group string) int {
	s.resMu.Lock()
	n := len(s.groupHolds[group])
	s.resMu.Unlock()
	return n
}

// ReservationCount returns the total number of permits currently held
// across all gangs — the post-hoc accounting checks in experiments
// assert it returns to zero after a rollback.
func (s *Server) ReservationCount() int {
	s.resMu.Lock()
	n := len(s.reservations)
	s.resMu.Unlock()
	return n
}

// BoundGroupCount returns how many members of the group are currently
// bound.
func (s *Server) BoundGroupCount(group string) int {
	s.resMu.Lock()
	n := len(s.groupBound[group])
	s.resMu.Unlock()
	return n
}

// BoundGroupMembers returns the names of the group's live bound
// members, sorted.
func (s *Server) BoundGroupMembers(group string) []string {
	return s.gangMembers(group, false, true)
}

// gangMembers returns, sorted by name, the group's permit holders
// and/or its live bound members — the two tables are disjoint: a pod
// leaves groupHolds in the same step (CommitGroup) that adds it to
// groupBound.
func (s *Server) gangMembers(group string, held, bound bool) []string {
	s.resMu.Lock()
	out := make([]string, 0, len(s.groupHolds[group])+len(s.groupBound[group]))
	if held {
		for name := range s.groupHolds[group] {
			out = append(out, name)
		}
	}
	if bound {
		for name := range s.groupBound[group] {
			out = append(out, name)
		}
	}
	s.resMu.Unlock()
	sort.Strings(out)
	return out
}

// VisitReservations calls fn for every held permit (pod, node, group),
// in sorted pod-name order. The table is copied out under resMu first,
// so fn may call back into the server.
func (s *Server) VisitReservations(fn func(pod, node, group string)) {
	type hold struct{ pod, node, group string }
	s.resMu.Lock()
	holds := make([]hold, 0, len(s.reservations))
	for pod, r := range s.reservations {
		holds = append(holds, hold{pod, r.node, r.group})
	}
	s.resMu.Unlock()
	sort.Slice(holds, func(i, j int) bool { return holds[i].pod < holds[j].pod })
	for _, h := range holds {
		fn(h.pod, h.node, h.group)
	}
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
	s.putReservation(podName, nodeName, p.Spec.PodGroup)
	ev := eventPod(p)
	ev.Spec.NodeName = nodeName
	t.publish(WatchEvent{Type: PodPermitHeld, Pod: ev})
	return nil
}

// The group operations below walk gangMembers under the world ladder and
// rely on two invariants instead of re-checking each member defensively:
//
// A permit holder is always a live, Pending, unbound pod. Three guards
// keep it so: a terminal transition drops the permit it finds
// (transition → dropPermit), Bind and Reserve refuse a pod that holds
// one (placeable) while MarkRunning and Preempt refuse an unbound pod,
// and there is no pod-delete API. So "the permit outlived its pod" cannot
// happen, and no code path releases a permit's capacity without
// publishing the event that says so.
//
// groupBound holds exactly the live bound gang members: bindPod adds,
// the terminal transition and requeueBound drop.
//
// With the world held the tables cannot change between gangMembers and
// the per-member step, so every listed member is still what the table
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
	members := s.gangMembers(group, true, false)
	if len(members) == 0 {
		return 0, fmt.Errorf("%w: group %s holds no permits", ErrConflict, group)
	}
	for _, name := range members {
		r, _ := s.dropReservation(name)
		t.bindPod(t.pod(name), r.node)
	}
	return len(members), nil
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
	members := s.gangMembers(group, true, false)
	for _, name := range members {
		t.rollbackPermit(t.pod(name), reason)
	}
	return len(members), nil
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
	members := s.gangMembers(group, true, true)
	if len(members) == 0 {
		return 0, fmt.Errorf("%w: group %s has no live members", ErrConflict, group)
	}
	for _, name := range members {
		if p := t.pod(name); !t.rollbackPermit(p, reason) {
			t.requeueBound(p, reason)
		}
	}
	return len(members), nil
}
