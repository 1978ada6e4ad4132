package apiserver

import (
	"sort"

	"github.com/sgxorch/sgxorch/internal/api"
)

// pendingQueue is the server's persistent queue of unscheduled pods:
// priority-then-FCFS (§IV's first-come first-served order, refined by
// api.PodSpec.Priority tiers). Each priority holds its own FCFS bucket
// with the tombstone-and-compact layout the plain FCFS queue used, so
// enqueue and remove stay O(1) amortized and a full visit is O(live +
// tiers). Pod names are unique across the whole queue.
//
// The queue is gang-aware: pods pushed with a pod-group name are
// coalesced on Visit — the first-encountered member of a group pulls
// its live co-members in the same priority tier forward, so a
// scheduling pass sees a whole gang adjacently instead of interleaved
// with unrelated pods (which would strand permits across passes).
// Buckets with no gang members take the historical zero-overhead path.
type pendingQueue struct {
	prios   []int32 // distinct priorities present, sorted descending
	buckets map[int32]*pendingBucket
	idx     map[string]int32  // pod name → its bucket's priority
	groupOf map[string]string // pod name → pod group (gang members only)
	seen    map[string]bool   // visit scratch, cleared after each use
	// classOf/classCount surface per-workload-class queue depth (classOf
	// holds classified pods only, like groupOf holds gang members;
	// unclassified depth is Len minus the classified sum). Accounting
	// only — class never affects queue order: within a tier the queue
	// stays strictly FCFS regardless of class, so class-aware routing
	// lives entirely in the scheduler, not the server.
	classOf    map[string]api.WorkloadClass
	classCount map[api.WorkloadClass]int
}

// pendingBucket is one priority tier's FCFS queue. Removed entries are
// tombstoned ("") and compacted when they outnumber live ones.
type pendingBucket struct {
	names  []string
	byName map[string]int
	dead   int
	// groups indexes the bucket's gang members by group, in push order,
	// so Visit can emit a gang adjacently without scanning the bucket.
	groups map[string][]string
}

func newPendingQueue() *pendingQueue {
	return &pendingQueue{
		buckets: make(map[int32]*pendingBucket),
		idx:     make(map[string]int32),
		groupOf: make(map[string]string),
	}
}

// Len returns the number of queued pods.
func (q *pendingQueue) Len() int { return len(q.idx) }

// ClassCounts folds the queue's per-workload-class depth into out
// (allocating it when nil): one entry per known class with queued pods,
// plus api.ClassUnspecified for the unclassified remainder.
func (q *pendingQueue) ClassCounts(out map[api.WorkloadClass]int) map[api.WorkloadClass]int {
	if out == nil {
		out = make(map[api.WorkloadClass]int, len(q.classCount)+1)
	}
	classified := 0
	for c, n := range q.classCount {
		out[c] += n
		classified += n
	}
	if rest := q.Len() - classified; rest > 0 {
		out[api.ClassUnspecified] += rest
	}
	return out
}

// PriorityCounts folds the queue's live depth per priority tier into out
// (allocating it when nil). O(tiers): each bucket's live size is
// len(byName) — the lazily-compacted names slice may be longer, but the
// index is exact.
func (q *pendingQueue) PriorityCounts(out map[int32]int) map[int32]int {
	if out == nil {
		out = make(map[int32]int, len(q.prios))
	}
	for _, prio := range q.prios {
		if b := q.buckets[prio]; b != nil && len(b.byName) > 0 {
			out[prio] += len(b.byName)
		}
	}
	return out
}

// Push appends a pod at the tail of its priority tier. A non-empty
// group registers the pod for gang coalescing within the tier; a known
// class registers it in the per-class depth accounting.
func (q *pendingQueue) Push(name string, prio int32, group string, class api.WorkloadClass) {
	b, ok := q.buckets[prio]
	if !ok {
		b = &pendingBucket{byName: make(map[string]int)}
		q.buckets[prio] = b
		// Insert into the descending priority list.
		i := sort.Search(len(q.prios), func(i int) bool { return q.prios[i] < prio })
		q.prios = append(q.prios, 0)
		copy(q.prios[i+1:], q.prios[i:])
		q.prios[i] = prio
	}
	b.byName[name] = len(b.names)
	b.names = append(b.names, name)
	q.idx[name] = prio
	if group != "" {
		if b.groups == nil {
			b.groups = make(map[string][]string)
		}
		b.groups[group] = append(b.groups[group], name)
		q.groupOf[name] = group
	}
	if class.Known() {
		if q.classOf == nil {
			q.classOf = make(map[string]api.WorkloadClass)
			q.classCount = make(map[api.WorkloadClass]int)
		}
		q.classOf[name] = class
		q.classCount[class]++
	}
}

// Remove drops a pod from the queue (no-op when absent): its slot is
// tombstoned in O(1), the bucket compacted once tombstones outnumber live
// entries, and emptied tiers are deleted so the tier list only holds
// priorities actually queued.
func (q *pendingQueue) Remove(name string) {
	prio, ok := q.idx[name]
	if !ok {
		return
	}
	delete(q.idx, name)
	if c, ok := q.classOf[name]; ok {
		delete(q.classOf, name)
		if q.classCount[c]--; q.classCount[c] <= 0 {
			delete(q.classCount, c)
		}
	}
	b := q.buckets[prio]
	b.names[b.byName[name]] = ""
	delete(b.byName, name)
	b.dead++
	if g, gang := q.groupOf[name]; gang {
		delete(q.groupOf, name)
		members := b.groups[g]
		for i, m := range members {
			if m == name {
				b.groups[g] = append(members[:i], members[i+1:]...)
				break
			}
		}
		if len(b.groups[g]) == 0 {
			delete(b.groups, g)
		}
	}
	if len(b.byName) == 0 {
		delete(q.buckets, prio)
		i := sort.Search(len(q.prios), func(i int) bool { return q.prios[i] <= prio })
		q.prios = append(q.prios[:i], q.prios[i+1:]...)
		return
	}
	if b.dead <= len(b.names)/2 {
		return
	}
	live := b.names[:0]
	for _, n := range b.names {
		if n == "" {
			continue
		}
		b.byName[n] = len(live)
		live = append(live, n)
	}
	for i := len(live); i < len(b.names); i++ {
		b.names[i] = ""
	}
	b.names = live
	b.dead = 0
}

// Visit calls fn for every queued pod name in priority-then-FCFS order,
// with gang members coalesced: the first live member of a group
// encountered in a tier is immediately followed by its remaining live
// co-members in that tier (in their own FCFS order), so a windowed
// walk (VisitPendingN) sees whole gangs instead of a truncated prefix
// of one. Returning false stops the walk.
func (q *pendingQueue) Visit(fn func(name string) bool) {
	for _, prio := range q.prios {
		b := q.buckets[prio]
		if len(b.groups) == 0 {
			// No gang members in this tier: the historical walk.
			for _, name := range b.names {
				if name == "" {
					continue
				}
				if !fn(name) {
					return
				}
			}
			continue
		}
		if q.seen == nil {
			q.seen = make(map[string]bool)
		}
		stopped := false
		for _, name := range b.names {
			if name == "" {
				continue
			}
			g := q.groupOf[name]
			if g != "" {
				if q.seen[name] {
					continue
				}
				q.seen[name] = true
			}
			if !fn(name) {
				stopped = true
				break
			}
			if g == "" {
				continue
			}
			for _, m := range b.groups[g] {
				if q.seen[m] {
					continue
				}
				q.seen[m] = true
				if !fn(m) {
					stopped = true
					break
				}
			}
			if stopped {
				break
			}
		}
		clear(q.seen)
		if stopped {
			return
		}
	}
}

// Snapshot returns the queued names in priority-then-FCFS order.
func (q *pendingQueue) Snapshot() []string {
	out := make([]string, 0, len(q.idx))
	q.Visit(func(name string) bool {
		out = append(out, name)
		return true
	})
	return out
}

// pendingSet is the pending queue with a per-scheduler index: the global
// priority-then-FCFS order (the §IV queue, what Snapshot and
// PendingCount expose) plus one sub-queue per Spec.SchedulerName, so a
// scheduler fleet member visits only its own shard — O(own pods) under
// the server lock instead of every member scanning the whole queue every
// round. The per-scheduler view is exactly the global order filtered to
// that scheduler: pushes hit both structures in the same order.
type pendingSet struct {
	all     *pendingQueue
	bySched map[string]*pendingQueue
}

func newPendingSet() *pendingSet {
	return &pendingSet{
		all:     newPendingQueue(),
		bySched: make(map[string]*pendingQueue),
	}
}

// Len returns the number of queued pods across all schedulers.
func (ps *pendingSet) Len() int { return ps.all.Len() }

// Push appends a pod at the tail of its priority tier, globally and in
// its scheduler's sub-queue. Pods with no scheduler name live only in
// the global view — lookups for "" short-circuit to it. A non-empty
// group enables gang coalescing on Visit (see pendingQueue); a known
// class feeds the per-class depth accounting (ClassCounts).
func (ps *pendingSet) Push(name, sched string, prio int32, group string, class api.WorkloadClass) {
	ps.all.Push(name, prio, group, class)
	if sched == "" {
		return
	}
	q, ok := ps.bySched[sched]
	if !ok {
		q = newPendingQueue()
		ps.bySched[sched] = q
	}
	q.Push(name, prio, group, class)
}

// Remove drops a pod from both views (no-op when absent).
func (ps *pendingSet) Remove(name, sched string) {
	ps.all.Remove(name)
	if sched == "" {
		return
	}
	if q, ok := ps.bySched[sched]; ok {
		q.Remove(name)
		if q.Len() == 0 {
			delete(ps.bySched, sched)
		}
	}
}

// Visit walks the named scheduler's queued pods in priority-then-FCFS
// order (the empty name walks every pod); returning false stops.
func (ps *pendingSet) Visit(sched string, fn func(name string) bool) {
	if sched == "" {
		ps.all.Visit(fn)
		return
	}
	if q, ok := ps.bySched[sched]; ok {
		q.Visit(fn)
	}
}

// ClassCounts returns the named scheduler's queued pods per workload
// class (the empty name reports the global queue).
func (ps *pendingSet) ClassCounts(sched string) map[api.WorkloadClass]int {
	if sched == "" {
		return ps.all.ClassCounts(nil)
	}
	if q, ok := ps.bySched[sched]; ok {
		return q.ClassCounts(nil)
	}
	return map[api.WorkloadClass]int{}
}

// PriorityCounts returns the named scheduler's queued pods per priority
// tier (the empty name reports the global queue).
func (ps *pendingSet) PriorityCounts(sched string) map[int32]int {
	if sched == "" {
		return ps.all.PriorityCounts(nil)
	}
	if q, ok := ps.bySched[sched]; ok {
		return q.PriorityCounts(nil)
	}
	return map[int32]int{}
}

// Snapshot returns all queued names in global priority-then-FCFS order.
func (ps *pendingSet) Snapshot() []string { return ps.all.Snapshot() }
