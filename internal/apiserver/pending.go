package apiserver

import "github.com/sgxorch/sgxorch/internal/api"

// pendingIndex is which pods are pending: every unbound, non-terminal pod
// holding no permit (§IV's queue of pending jobs), by name. It keeps no
// order and hands out none — order unspecified; a scheduler orders its own
// queue (internal/core keeps it from the watch stream) — only what the
// depth counters, the whole-queue readers and a snapshot need: each pod's
// scheduler, priority, workload class and queue rev, the rev of the event
// that put it in the queue (PodCreated, a requeue PodUpdated or
// PodPermitReleased; internal/model's QueuedAt). Per-(scheduler, class)
// and per-priority counts are kept beside it, so a depth reading costs
// O(schedulers × classes) or O(tiers), never a scan.
type pendingIndex struct {
	pods    map[string]pendingEntry
	classes map[pendingClass]int
	prios   map[int32]int
}

// pendingClass is a (scheduler, class slot) pair of the depth counts.
type pendingClass struct {
	sched string
	slot  int // api.WorkloadClass.Slot
}

type pendingEntry struct {
	pendingClass
	prio int32
	rev  int64
}

func newPendingIndex() pendingIndex {
	return pendingIndex{
		pods:    make(map[string]pendingEntry),
		classes: make(map[pendingClass]int),
		prios:   make(map[int32]int),
	}
}

// add indexes a pod that entered the queue at rev.
func (x *pendingIndex) add(p *api.Pod, rev int64) {
	e := pendingEntry{pendingClass{p.Spec.SchedulerName, p.Spec.WorkloadClass().Slot()}, p.Spec.Priority, rev}
	x.pods[p.Name] = e
	x.classes[e.pendingClass]++
	x.prios[e.prio]++
}

// remove drops a pod from the index (no-op when absent). A class count
// that drops to zero is kept, so the next pod of the class allocates
// nothing.
func (x *pendingIndex) remove(name string) {
	e, ok := x.pods[name]
	if !ok {
		return
	}
	delete(x.pods, name)
	x.classes[e.pendingClass]--
	if x.prios[e.prio]--; x.prios[e.prio] == 0 {
		delete(x.prios, e.prio)
	}
}

// classCounts returns the named scheduler's pending pods per workload
// class (the empty name: every scheduler's), one entry per class with
// pending pods.
func (x *pendingIndex) classCounts(sched string) map[api.WorkloadClass]int {
	out := make(map[api.WorkloadClass]int)
	for k, n := range x.classes {
		if n > 0 && (sched == "" || k.sched == sched) {
			out[api.Classes[k.slot]] += n
		}
	}
	return out
}
