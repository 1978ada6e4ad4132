package core

import (
	"errors"

	"github.com/sgxorch/sgxorch/internal/apiserver"
)

// This file is the per-pod scheduling cycle — §IV's filter job-node
// combinations, place by policy, bind — that schedulePass runs once per
// pending pod. A cycle reads and writes one scheduler-owned cycleState
// and reports one outcome value; nothing in it is allocated per pod.

// cycleState is everything a scheduling cycle works with. One lives in
// each Scheduler, guarded by passMu: the pass fills in the pass-scoped
// part once, every cycle overwrites the pod-scoped part, and the scratch
// buffers are recycled across pods and passes.
type cycleState struct {
	// Pass scope. rec is the pass recorder, nil with telemetry off; det is
	// rec on detail-sampled passes and nil otherwise, so per-pod and
	// per-plugin timing costs undetailed passes a nil check. (What the
	// pass plans on is the scheduler's one view, Scheduler.view.)
	rec *passRecorder
	det *passRecorder
	// The once-per-pass preemption gate: no pod can preempt unless some
	// live pod sits in a strictly lower tier (anyBound, minPrio) — or, for
	// pipelines allowed to take best-effort victims, some declared
	// best-effort pod is bound anywhere (beBound). Refreshed after
	// evictions.
	minPrio  int32
	anyBound bool
	beBound  bool
	// memo holds the pass's clean failures (memo.go), emptied at the start
	// of every pass and on every preemption.
	memo failureMemo
	// committed holds the entries whose commit the server accepted, taken
	// out of the queue together when the pass ends (ClusterCache.dequeue).
	committed []queuedPod

	// Pod scope: the pod's request data — summed once, because the §IV
	// fit runs per (pod, node) — and the pipeline its class resolved
	// to. info is refilled in place for every pod, keeping its
	// cycleScratch (narrowing and scores), which is how the plugins reach
	// scheduler-owned scratch.
	info PodInfo
	pl   *pipeline

	// Scratch: candidates holds the feasible nodes, victims and groups
	// serve the preemption planner, only is the one-candidate list of
	// placesOn.
	candidates []*NodeView
	victims    []victimInfo
	groups     []string
	only       []*NodeView
}

// mayPreempt reports whether the pod in the cycle passes its pipeline's
// preemption gate against the pass's view of what is bound.
func (c *cycleState) mayPreempt() bool {
	return c.pl.mayPreempt &&
		((c.anyBound && c.minPrio < c.info.Priority) || (c.pl.takeBE && c.beBound))
}

// outcomeKind is how one pod's scheduling cycle ended.
type outcomeKind uint8

const (
	// outcomeSkipped: the commit failed for a reason that says nothing
	// about the cluster (e.g. the pod vanished). Nothing is counted; the
	// next pass re-evaluates.
	outcomeSkipped outcomeKind = iota
	// outcomeBound: the pod was bound to a node.
	outcomeBound
	// outcomeHeld: a gang member under a gang director took a conditional
	// reservation in place of the bind (the gang commits at quorum).
	outcomeHeld
	// outcomeGated: the gang director's admit gate turned a gang member
	// away before any per-node work.
	outcomeGated
	// outcomeUnschedulable: no node passed the pipeline (and preemption,
	// where allowed, found no victim set). The pod stays queued and is
	// retried next pass, keeping its queue position without head-of-line
	// blocking the rest of the queue.
	outcomeUnschedulable
	// outcomeConflict: the API server refused the commit because this
	// scheduler's view was outdated or the node's state changed mid-pass.
	outcomeConflict
)

// outcome is what a scheduling cycle reports to its pass — a small value
// carrying what the pass folds into its tally and what tells it to stop.
type outcome struct {
	kind outcomeKind
	// stale qualifies outcomeConflict: the refusal was a capacity one
	// (ErrOutdated), so the view is provably outdated and the pass ends.
	stale bool
	// sampled: the candidate search took the indexed sampling path.
	sampled bool
	// slot is the pod's class slot, under which the outcome is counted.
	slot int
	// victims counts the pods this cycle evicted to make room (0 = it did
	// not preempt). A cycle that preempted may still end in any kind.
	victims int
	// memoised qualifies outcomeUnschedulable: the pass's failure memo
	// proved it, and the cycle ran neither the fit check nor the planner.
	memoised bool
}

// count folds one cycle's outcome into the pass tally.
func (s *Stats) count(o outcome) {
	c := &s.ByClass[o.slot]
	if o.sampled {
		s.Sampled++
	}
	if o.memoised {
		s.Memoised++
	}
	if o.victims > 0 {
		s.Preemptions++
		c.Preemptions++
		s.Victims += o.victims
		c.Victims += o.victims
	}
	switch o.kind {
	case outcomeBound:
		s.Bound++
		c.Bound++
	case outcomeHeld:
		s.Held++
		c.Held++
	case outcomeGated:
		s.Gated++
	case outcomeUnschedulable:
		s.Unschedulable++
		c.Unschedulable++
	case outcomeConflict:
		s.Conflicts++
	}
}

// cycle schedules one pending pod: classify it onto its pipeline, gate a
// gang member through the gang director, run the §IV fit over the nodes
// and the pre-score/score stage, fall back to preemption when nothing is
// feasible, and commit the decision. The per-pod stage spans are timed
// through c.det, i.e. on detail-sampled passes only: preemption planning
// included, since it runs for every pod that failed to place and two clock
// reads per unschedulable pod on every pass would dominate the
// instrumentation budget on a congested queue.
func (s *Scheduler) cycle(c *cycleState, e *queuedPod) outcome {
	info, pod := &c.info, e.pod
	fillPodInfo(info, pod, e.req)
	// Workload-class resolution is a table lookup: the pod's class slot
	// selects the pipeline with its sampling bounds and preemption gates;
	// unclassified pods take slot 0 — the exact pre-class pass.
	var o outcome
	if s.classifier != nil {
		o.slot = s.classifier.Classify(pod).Slot()
	}
	c.pl = &s.pipelines[o.slot]
	det := c.det
	// A gang member under a director is gated by it (which may also
	// raise its priority for the cycle) and reserves instead of binding;
	// every other pod binds at once.
	gang := s.cfg.Gang != nil && pod.Spec.InGang()
	if gang {
		t := det.now()
		ok := s.cfg.Gang.admit(info, s.view)
		det.stageSince(stagePreFilter, t)
		if !ok {
			o.kind = outcomeGated
			return o
		}
	}
	// A solo pod an earlier failure of this pass already proves
	// unschedulable skips every stage below but the preemption gate and
	// sync (memo.go). Gang members never do.
	memoable := !s.noMemo && !pod.Spec.InGang()
	dominated := memoable && c.memo.dominates(s.view, o.slot, info)

	t := det.now()
	nodes := s.view.Nodes
	candidates := c.candidates[:0]
	if target := numFeasibleNodesToFind(c.pl.pct, c.pl.minFeasible, len(nodes)); target < len(nodes) {
		// Sampled path: walk only the index buckets that can fit the pod,
		// stop after enough feasible candidates. Candidate order differs
		// from the name-sorted full scan (best-fit buckets first), which
		// only matters to order-sensitive tie-breaks — acceptable by
		// construction: sampling itself already trades exhaustive choice
		// for pass cost. A dominated pod's search would have found nothing
		// and so visited every eligible node; the rotation moves as far.
		var visited int
		if dominated {
			visited = s.view.eligible(info)
		} else {
			candidates, visited = s.view.sampleFeasible(info, target, s.sampleOffset, candidates)
		}
		s.sampleOffset += visited
		o.sampled = true
	} else if !dominated {
		for _, n := range nodes {
			if n.Fits(info.Req) {
				candidates = append(candidates, n)
			}
		}
	}
	c.candidates = candidates
	det.stageSince(stageFilter, t)
	filteredAt := s.view.loosened

	t = det.now()
	var node string
	ok := false
	if !dominated {
		node, ok = c.pl.profile.selectInfo(info, candidates, s.view, det)
	}
	det.stageSince(stageScore, t)
	// A clean failure so far: no node fit, so no placement stage declined
	// anything.
	clean := memoable && len(candidates) == 0
	if !ok && c.mayPreempt() {
		// No feasible node: try to make room by evicting strictly
		// lower-priority pods — plus declared best-effort pods when the
		// pipeline may take them (preemption.go).
		t = det.now()
		target, evicted, noSet := s.preempt(c, dominated)
		det.stageSince(stagePreempt, t)
		clean = clean && noSet
		if target != "" {
			o.victims = evicted
			// Continue from a view that reflects the evictions, with the
			// memo emptied: the evictions and the refreshed gate may let
			// any pod fit or preempt.
			c.memo.reset()
			s.syncedViewLocked()
			c.minPrio, c.anyBound, c.beBound = s.cache.preemptGate()
			// The planner already replayed the pipeline against the
			// predicted post-eviction state, but re-run it against the
			// actual view so a racing mutation can never over-commit the
			// node or bypass a policy veto — and so a victim that left on
			// its own between plan and eviction (nothing evicted, nothing
			// counted) still yields its room to this pod in this pass.
			if n := s.view.Node(target); n != nil && s.placesOn(c, n) {
				node, ok = target, true
			}
		}
	}
	if !ok {
		// Proofs hold only while the view has not loosened since the fit
		// check read it: the preemption sync may have.
		if s.view.loosened == filteredAt {
			if dominated {
				o.memoised = true
			} else if clean {
				c.memo.record(s.view, o.slot, info)
			}
		}
		o.kind = outcomeUnschedulable
		return o
	}
	o.kind, o.stale = s.commit(c, e, node, gang)
	return o
}

// placesOn replays the pod's whole pipeline — the §IV fit, preferences,
// scores — with n as the only candidate and reports whether it would place
// the pod exactly there. Preemption asks it twice: the planner of a
// simulated post-eviction node before evicting anyone, the cycle of the
// real node after.
func (s *Scheduler) placesOn(c *cycleState, n *NodeView) bool {
	if !n.Fits(c.info.Req) {
		return false
	}
	c.only = append(c.only[:0], n)
	name, ok := c.pl.profile.selectInfo(&c.info, c.only, s.view, nil)
	return ok && name == n.Name
}

// commit is the binding half of the cycle: it hands the decision to the
// API server — as a conditional reservation for a gang member under the
// director, as a bind otherwise — and on success notes the entry for the
// pass to take out of its queue and charges the view, so later decisions
// in this pass see the node's reduced headroom. Both commits share one
// error taxonomy; stale reports the refusal that ends the pass.
func (s *Scheduler) commit(c *cycleState, e *queuedPod, node string, gang bool) (kind outcomeKind, stale bool) {
	t := c.rec.now()
	var err error
	if gang {
		err = s.srv.Reserve(c.info.Pod.Name, node)
	} else {
		err = s.srv.Bind(c.info.Pod.Name, node)
	}
	c.rec.stageSince(stageBind, t)
	switch {
	case err == nil:
	case errors.Is(err, apiserver.ErrOutdated):
		// A concurrent scheduler won this capacity: the view is provably
		// stale, and every remaining decision rests on the same
		// assumptions. The pod stays pending; the next pass syncs from a
		// cache that has already absorbed the winner's events.
		return outcomeConflict, true
	case errors.Is(err, apiserver.ErrConflict):
		// Other admission refusals (node cordoned mid-pass, pod already
		// bound or terminal) may be permanent for *this* pod — skip it
		// rather than head-of-line block the rest of the queue.
		return outcomeConflict, false
	default:
		return outcomeSkipped, false
	}
	c.committed = append(c.committed, *e)
	s.view.Commit(node, c.info.Req)
	if !gang {
		return outcomeBound, false
	}
	// The director counts the permit toward quorum and may commit the
	// whole gang. Outside the server critical sections; the pass view is
	// unaffected — a commit emits PodBound events the cache absorbs for
	// the *next* pass.
	t = c.det.now()
	s.cfg.Gang.onReserved(&c.info)
	c.det.stageSince(stagePermit, t)
	return outcomeHeld, false
}
