package core

import "github.com/sgxorch/sgxorch/internal/resource"

// The pass's failure memo. Under load most of the queue cannot be placed,
// and a pass used to prove that again pod by pod: filter every node, then
// plan victims on every node, only to learn what an earlier pod of the same
// pass had already learnt. The memo keeps those proofs for the rest of the
// pass and nothing longer: there is no cross-pass state.
//
// A pod fails cleanly when no node passes the filter and — where its gate
// lets it preempt — the planner finds no node with enough eligible victims.
// Both must have read one view: if the planner's sync loosened it, the
// failure proves nothing about the looser view, whose filter never ran (a
// node the planner finds short of victims may still pass the filter: the
// planner charges a standard pod for a node's over-used EPC, the filter
// does not). Every later solo pod of the same class slot, SGX flag and
// priority whose request is at least as large in every resource then
// fails the same way, for as long as the view has not loosened
// (ClusterView.loosened):
//   - the §IV fit is monotone in the request, and without a loosening every
//     node's headroom, allocatable and free devices can only have fallen;
//   - preemption fails on a node iff for some resource the request exceeds
//     the headroom plus what the eligible victims free. Eligibility depends
//     only on the priority and the slot (takeBE), binds add to usage and to
//     the eligible charges alike, and a gang unit only becomes eligible when
//     a member leaves, which the view counts as a loosening.
//
// So a dominated pod's cycle skips the filter, the placement stage and the
// planner, and reports outcomeUnschedulable exactly as the exhaustive cycle
// would. What the exhaustive cycle would have changed it
// still changes: the sampled search's rotation advances by the nodes a
// failed search visits, and a pod whose gate is open re-reads the live
// gate and syncs the view — and runs the real planner if that sync
// loosened. A candidate list the policy declined is not a clean failure,
// and neither is a node that already fit or whose victim set the policy
// vetoed. Gang members never take part: a gang director gates
// them and raises their priority for their cycle.
// Any preemption empties the memo, since it refreshes the pass's gate.

// memoKey is what a dominated pod shares with the failure that proves
// it: the class slot (pipeline, sampling bounds, preemption gate), the
// SGX flag and the priority (victim eligibility).
type memoKey struct {
	slot     int
	sgx      bool
	priority int32
}

func keyOf(slot int, pod *PodInfo) memoKey {
	return memoKey{slot: slot, sgx: pod.SGX, priority: pod.Priority}
}

// memoEntry is one clean failure.
type memoEntry struct {
	key memoKey
	req resource.List
}

// maxMemoEntries bounds the memo so a lookup stays a short scan: a pass
// over requests that do not order one another (more CPU, less memory)
// stops recording once it holds this many, and stays exact.
const maxMemoEntries = 32

// failureMemo holds one pass's clean failures, all proven while the view's
// loosening count read at.
type failureMemo struct {
	at      uint64
	entries []memoEntry
}

// reset forgets every entry.
func (m *failureMemo) reset() { m.entries = m.entries[:0] }

// live reports whether the entries still hold: the view has not loosened
// since they were proven.
func (m *failureMemo) live(v *ClusterView) bool { return v.loosened == m.at }

// dominates reports whether a live entry proves that pod, of class slot
// slot, fails too.
func (m *failureMemo) dominates(v *ClusterView, slot int, pod *PodInfo) bool {
	if len(m.entries) == 0 || !m.live(v) {
		return false
	}
	k := keyOf(slot, pod)
	for i := range m.entries {
		if m.entries[i].covers(k, pod.Req) {
			return true
		}
	}
	return false
}

// record adds the clean failure of pod, proven at the view's current
// loosening count, dropping the entries it dominates.
func (m *failureMemo) record(v *ClusterView, slot int, pod *PodInfo) {
	if !m.live(v) {
		m.reset()
		m.at = v.loosened
	}
	e := memoEntry{key: keyOf(slot, pod), req: pod.Req}
	kept := m.entries[:0]
	for _, old := range m.entries {
		if !e.covers(old.key, old.req) {
			kept = append(kept, old)
		}
	}
	m.entries = kept
	if len(m.entries) < maxMemoEntries {
		m.entries = append(m.entries, e)
	}
}

// covers reports whether a pod with key k and request req fails wherever
// e failed: the same key, and a request no smaller in any resource.
func (e *memoEntry) covers(k memoKey, req resource.List) bool {
	if e.key != k {
		return false
	}
	for r, q := range e.req {
		if req[r] < q {
			return false
		}
	}
	return true
}
